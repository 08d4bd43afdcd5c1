package backend

import (
	"bytes"
	"fmt"
	"sort"
)

// Range is a half-open byte range [Off, Off+Len).
type Range struct {
	Off, Len int64
}

// Sparse holds an incrementally assembled subset of a fixed-size byte
// container: a sorted, non-overlapping, adjacency-merged set of spans.
// It is the one span store behind both halves of the remote read path —
// the Cached tier's per-container range cache and ipcomp/client's sparse
// tile reassembly — so both share the same merge and verification
// semantics. Sparse itself is not goroutine-safe; owners lock around it.
//
// Every mutating or reading call carries a generation stamp (any
// monotonically increasing counter supplied by the owner; 0 works for
// owners that never evict). Spans remember the largest stamp that touched
// them, which is what EvictUpTo uses to approximate LRU at span
// granularity. Merging keeps the newest stamp of the merged parts, so a
// cold span glued to a hot neighbour is treated as hot — the budget is
// approximate in that direction, never in the other.
type Sparse struct {
	size  int64
	held  int64
	spans []sparseSpan // sorted by off, non-overlapping, contiguous merged
}

type sparseSpan struct {
	off int64
	b   []byte
	gen int64
}

// NewSparse creates an empty sparse view of a container of size bytes.
func NewSparse(size int64) *Sparse { return &Sparse{size: size} }

// Size returns the size of the container the view covers.
func (s *Sparse) Size() int64 { return s.size }

// Held returns the bytes currently resident.
func (s *Sparse) Held() int64 { return s.held }

// SpanCount returns the number of resident (merged) spans.
func (s *Sparse) SpanCount() int { return len(s.spans) }

// Clone returns a view that holds what s holds now and is unaffected by
// later Inserts into s (and the reverse): an owner takes one before a
// batch of Inserts it may have to take back. Resident bytes are never
// rewritten, so the spans' bytes are shared, not copied; the clone's
// slices are capped at their length so that a merge appends into memory
// of its own.
func (s *Sparse) Clone() *Sparse {
	c := *s
	c.spans = make([]sparseSpan, len(s.spans))
	for i, sp := range s.spans {
		sp.b = sp.b[:len(sp.b):len(sp.b)]
		c.spans[i] = sp
	}
	return &c
}

// Insert adds [off, off+len(b)) to the view, taking ownership of b.
// Portions already resident are verified to carry identical bytes and
// skipped; only the missing sub-ranges are stored. Tolerating re-sent
// ranges is part of the remote protocol, not just robustness: per-level
// loading plans are not monotone in the error bound, so a refinement
// token can understate what a client holds and the server legitimately
// re-ships a range applied earlier — and a retry after a mid-body network
// failure replays ranges that already landed. A re-sent range with
// different bytes is corruption and fails loudly.
func (s *Sparse) Insert(off int64, b []byte, gen int64) error {
	// Subtraction, not off+len: a forged wire span with an offset near
	// 2^63 must not overflow past the check.
	if off < 0 || off > s.size || int64(len(b)) > s.size-off {
		return fmt.Errorf("backend: span [%d,+%d) outside container of %d bytes", off, len(b), s.size)
	}
	pos, rest := off, b
	var add []sparseSpan
	for i := range s.spans {
		if len(rest) == 0 {
			break
		}
		sp := &s.spans[i]
		spEnd := sp.off + int64(len(sp.b))
		if spEnd <= pos {
			continue
		}
		if sp.off >= pos+int64(len(rest)) {
			break
		}
		if sp.off > pos {
			// The gap [pos, sp.off) is new.
			n := sp.off - pos
			add = append(add, sparseSpan{off: pos, b: rest[:n:n], gen: gen})
			pos, rest = pos+n, rest[n:]
		}
		// [pos, min(spEnd, end)) overlaps span i: verify, then skip.
		n := spEnd - pos
		if n > int64(len(rest)) {
			n = int64(len(rest))
		}
		rel := pos - sp.off
		if !bytes.Equal(sp.b[rel:rel+n], rest[:n]) {
			return fmt.Errorf("backend: re-sent range at %d carries different bytes", pos)
		}
		if gen > sp.gen {
			sp.gen = gen
		}
		pos, rest = pos+n, rest[n:]
	}
	if len(rest) > 0 {
		add = append(add, sparseSpan{off: pos, b: rest, gen: gen})
	}
	if len(add) == 0 {
		return nil
	}
	for _, sp := range add {
		s.held += int64(len(sp.b))
	}
	s.spans = append(s.spans, add...)
	sort.Slice(s.spans, func(i, j int) bool { return s.spans[i].off < s.spans[j].off })
	// Merge contiguous neighbours so later reads may straddle what arrived
	// as separate spans.
	merged := s.spans[:1]
	for _, sp := range s.spans[1:] {
		last := &merged[len(merged)-1]
		if last.off+int64(len(last.b)) == sp.off {
			last.b = append(last.b, sp.b...)
			if sp.gen > last.gen {
				last.gen = sp.gen
			}
		} else {
			merged = append(merged, sp)
		}
	}
	s.spans = merged
	return nil
}

// Covers reports whether [off, off+n) is entirely resident.
func (s *Sparse) Covers(off, n int64) bool { return len(s.Missing(off, n)) == 0 }

// Missing returns the sub-ranges of [off, off+n) that are not resident,
// in offset order. A fully resident range returns nil. It runs in
// O(log spans + spans overlapping the range) — it is on every cached
// read's path, warm hits included.
func (s *Sparse) Missing(off, n int64) []Range {
	var gaps []Range
	pos, end := off, off+n
	first := sort.Search(len(s.spans), func(i int) bool {
		return s.spans[i].off+int64(len(s.spans[i].b)) > pos
	})
	for i := first; i < len(s.spans); i++ {
		sp := &s.spans[i]
		spEnd := sp.off + int64(len(sp.b))
		if sp.off >= end {
			break
		}
		if sp.off > pos {
			gaps = append(gaps, Range{Off: pos, Len: sp.off - pos})
		}
		if spEnd > pos {
			pos = spEnd
		}
		if pos >= end {
			return gaps
		}
	}
	if pos < end {
		gaps = append(gaps, Range{Off: pos, Len: end - pos})
	}
	return gaps
}

// ReadRange returns the resident bytes of [off, off+n). The range must be
// entirely resident (after merging, any range whose holes were all
// Inserted is one contiguous span); reads touching missing bytes fail
// loudly. The returned slice aliases the span store — callers that evict
// must copy before releasing their lock.
func (s *Sparse) ReadRange(off, n, gen int64) ([]byte, error) {
	if n < 0 || off < 0 {
		return nil, fmt.Errorf("backend: invalid read [%d,+%d)", off, n)
	}
	i := sort.Search(len(s.spans), func(i int) bool { return s.spans[i].off+int64(len(s.spans[i].b)) > off })
	if i == len(s.spans) || s.spans[i].off > off || off+n > s.spans[i].off+int64(len(s.spans[i].b)) {
		return nil, fmt.Errorf("backend: read [%d,%d) outside the resident ranges", off, off+n)
	}
	if gen > s.spans[i].gen {
		s.spans[i].gen = gen
	}
	rel := off - s.spans[i].off
	return s.spans[i].b[rel : rel+n], nil
}

// OldestGen returns the smallest generation stamp among resident spans;
// ok is false when nothing is resident.
func (s *Sparse) OldestGen() (gen int64, ok bool) {
	if len(s.spans) == 0 {
		return 0, false
	}
	gen = s.spans[0].gen
	for _, sp := range s.spans[1:] {
		if sp.gen < gen {
			gen = sp.gen
		}
	}
	return gen, true
}

// EvictUpTo drops least-recently-touched spans until at least target
// bytes are freed (or nothing remains) in a single O(n log n) pass,
// and returns the bytes freed. Batch eviction keeps a saturated cache
// from paying a full recency scan per span.
func (s *Sparse) EvictUpTo(target int64) int64 {
	if len(s.spans) == 0 || target <= 0 {
		return 0
	}
	idx := make([]int, len(s.spans))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return s.spans[idx[a]].gen < s.spans[idx[b]].gen })
	drop := make(map[int]bool, len(idx))
	var freed int64
	for _, i := range idx {
		if freed >= target {
			break
		}
		drop[i] = true
		freed += int64(len(s.spans[i].b))
	}
	kept := s.spans[:0]
	for i := range s.spans {
		if !drop[i] {
			kept = append(kept, s.spans[i])
		}
	}
	s.spans = kept
	s.held -= freed
	return freed
}
