package backend

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"
	"sort"
)

// Range is a half-open byte range [Off, Off+Len).
type Range struct {
	Off, Len int64
}

// Sparse holds an incrementally assembled subset of a fixed-size byte
// container: a sorted, non-overlapping set of spans.
// It is the one span store behind both ends of a tile's bytes — the
// compressed bytes a store's tile-cache entry has read, and
// ipcomp/client's sparse tile reassembly — so both share the same merge
// and verification semantics. Sparse itself is not goroutine-safe; owners
// lock around it.
//
// Resident bytes are never rewritten: a merge copies its parts into a
// fresh slice, so a slice ReadRange returned stays valid, and unchanged,
// after the owner lets go of its lock. Because ReadRange may merge, it
// needs the owner's lock as much as Insert does.
type Sparse struct {
	size  int64
	held  int64
	spans []sparseSpan // sorted by off, non-overlapping
}

type sparseSpan struct {
	off int64
	b   []byte
}

// NewSparse creates an empty sparse view of a container of size bytes.
func NewSparse(size int64) *Sparse { return &Sparse{size: size} }

// Size returns the size of the container the view covers.
func (s *Sparse) Size() int64 { return s.size }

// Held returns the bytes the resident spans occupy: their capacity, which
// for a span Sparse merged is its length rounded up to the allocator's
// size class.
func (s *Sparse) Held() int64 { return s.held }

// Clone returns a view that holds what s holds now and is unaffected by
// later Inserts into s (and the reverse): an owner takes one before a
// batch of Inserts it may have to take back. Resident bytes are never
// rewritten, so the spans' bytes are shared, not copied.
func (s *Sparse) Clone() *Sparse {
	c := *s
	c.spans = slices.Clone(s.spans)
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
func (s *Sparse) Insert(off int64, b []byte) error {
	// Subtraction, not off+len: a forged wire span with an offset near
	// 2^63 must not overflow past the check.
	if off < 0 || off > s.size || int64(len(b)) > s.size-off {
		return fmt.Errorf("backend: span [%d,+%d) outside container of %d bytes", off, len(b), s.size)
	}
	pos, rest := off, b
	var addBuf [4]sparseSpan
	add := addBuf[:0]
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
			add = append(add, sparseSpan{off: pos, b: rest[:n:n]})
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
		pos, rest = pos+n, rest[n:]
	}
	if len(rest) > 0 {
		add = append(add, sparseSpan{off: pos, b: rest})
	}
	if len(add) == 0 {
		return nil
	}
	for _, sp := range add {
		s.held += int64(cap(sp.b))
	}
	s.spans = append(s.spans, add...)
	slices.SortFunc(s.spans, func(a, b sparseSpan) int { return cmp.Compare(a.off, b.off) })
	return nil
}

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
// entirely resident; reads touching missing bytes fail loudly. A range
// that straddles spans inserted separately is served once they are merged
// into one fresh slice, which replaces them: a tile's decode reads exactly
// the ranges it fetched and copies nothing, and a range read again after
// a merge is served in place. The returned slice aliases the span store;
// resident bytes are never rewritten, so it stays valid after the owner
// unlocks.
func (s *Sparse) ReadRange(off, n int64) ([]byte, error) {
	if n < 0 || off < 0 {
		return nil, fmt.Errorf("backend: invalid read [%d,+%d)", off, n)
	}
	i := sort.Search(len(s.spans), func(i int) bool { return s.spans[i].off+int64(len(s.spans[i].b)) > off })
	if i == len(s.spans) || s.spans[i].off > off {
		return nil, fmt.Errorf("backend: read [%d,%d) outside the resident ranges", off, off+n)
	}
	j, end := i+1, s.spans[i].off+int64(len(s.spans[i].b))
	for end < off+n && j < len(s.spans) && s.spans[j].off == end {
		end += int64(len(s.spans[j].b))
		j++
	}
	if end < off+n {
		return nil, fmt.Errorf("backend: read [%d,%d) outside the resident ranges", off, off+n)
	}
	if j > i+1 {
		b := slices.Grow([]byte(nil), int(end-s.spans[i].off))
		for _, sp := range s.spans[i:j] {
			s.held -= int64(cap(sp.b))
			b = append(b, sp.b...)
		}
		s.held += int64(cap(b))
		s.spans[i].b = b
		// The merged-away spans must not pin the parts they copied.
		s.spans = slices.Delete(s.spans, i+1, j)
	}
	rel := off - s.spans[i].off
	return s.spans[i].b[rel : rel+n : rel+n], nil
}
