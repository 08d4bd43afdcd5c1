package main

import (
	"sort"
	"sync"
	"time"

	"repro/internal/core"
)

// span is one timed call into a layer's public API, recorded by the
// benchmark around the call (nothing inside the program is instrumented).
// Spans of one replayed operation share Op; Parent is the id of the span
// whose call caused this one, or 0 for the operation's root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. Replays are
// single-threaded per operation, but the in-process HTTP handler may be
// entered from the client's goroutine, so appends are locked.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id; end closes it.
func (t *tracer) begin(op, parent int, name string) int {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: now})
	return id
}

func (t *tracer) end(id int) {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// endAt closes a span at a time taken earlier (a round's done timestamp,
// taken before the oracle ran).
func (t *tracer) endAt(id int, at time.Time) {
	t.mu.Lock()
	t.spans[id-1].End = int64(at.Sub(t.t0))
	t.mu.Unlock()
}

// endOf returns when a closed span ended.
func (t *tracer) endOf(id int) time.Time {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.t0.Add(time.Duration(t.spans[id-1].End))
}

// add records a span whose duration was reported by a hook rather than
// bracketed by the benchmark (store.RetrieveOptions.Stage, DecodeStats):
// it is placed so that it ends at end. It returns the span's id.
func (t *tracer) add(op, parent int, name string, end time.Time, d time.Duration) int {
	e := int64(end.Sub(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: e - int64(d), End: e})
	return id
}

// hangDecodeStats records the entropy-codec and block-read time a
// retrieval's DecodeStats collected as two hook-reported children of the
// retrieval's (closed) span, back to back up to its end. Both are CPU
// summed across the retrieval's workers and may not fit inside the span;
// selfNanos clips them.
func (t *tracer) hangDecodeStats(op, parent int, st *core.DecodeStats) (codec, read time.Duration) {
	codec, read = time.Duration(st.CodecNanos.Load()), time.Duration(st.ReadNanos.Load())
	end := t.endOf(parent)
	t.add(op, parent, "codec.DecodeBlock", end, codec)
	t.add(op, parent, "backend.read", end.Add(-codec), read)
	return codec, read
}

// selfNanos returns each span's self time: its duration minus the part of
// its interval that its child spans cover (children may overlap each
// other or, for hook-reported spans, stick out of the parent; both are
// clipped and merged before subtracting).
func selfNanos(spans []span) map[int]int64 {
	type iv struct{ lo, hi int64 }
	kids := make(map[int][]iv)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], iv{s.Start, s.End})
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		covered := int64(0)
		ivs := kids[s.ID]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
		edge := s.Start
		for _, k := range ivs {
			lo, hi := max(k.lo, edge), min(k.hi, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[s.ID] = (s.End - s.Start) - covered
	}
	return out
}

// layerTimes folds spans into per-name totals: summed duration, summed
// self time and count.
type layerTime struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

func layerTimes(spans []span) []layerTime {
	self := selfNanos(spans)
	byName := make(map[string]*layerTime)
	var order []string
	for _, s := range spans {
		lt := byName[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			byName[s.Name] = lt
			order = append(order, s.Name)
		}
		lt.Count++
		lt.TotalMs += float64(s.End-s.Start) / 1e6
		lt.SelfMs += float64(self[s.ID]) / 1e6
	}
	out := make([]layerTime, 0, len(order))
	for _, n := range order {
		out = append(out, *byName[n])
	}
	return out
}

// pooled sums, over the spans with any of the given names, their
// duration, their self time and their number.
func pooled(lts []layerTime, names ...string) (totalMs, selfMs float64, count int) {
	for _, lt := range lts {
		for _, name := range names {
			if lt.Name == name {
				totalMs += lt.TotalMs
				selfMs += lt.SelfMs
				count += lt.Count
			}
		}
	}
	return
}

// meanMs returns the mean duration in milliseconds of the spans with any
// of the given names (0 when there are none), and how many there were.
func meanMs(lts []layerTime, names ...string) (float64, int) {
	total, _, n := pooled(lts, names...)
	if n == 0 {
		return 0, 0
	}
	return total / float64(n), n
}

// selfMeanMs is meanMs over self time.
func selfMeanMs(lts []layerTime, names ...string) float64 {
	_, self, n := pooled(lts, names...)
	if n == 0 {
		return 0
	}
	return self / float64(n)
}

// opsNamed returns the operations whose root span has the given name.
func (t *tracer) opsNamed(root string) map[int]bool {
	out := make(map[int]bool)
	for _, s := range t.spans {
		if s.Parent == 0 && s.Name == root {
			out[s.Op] = true
		}
	}
	return out
}

// spanMean is the mean duration in milliseconds, and the count, of the
// spans with the given name inside the given operations.
func spanMean(spans []span, ops map[int]bool, name string) (float64, int) {
	total, n := 0.0, 0
	for _, s := range spans {
		if ops[s.Op] && s.Name == name {
			total += float64(s.End-s.Start) / 1e6
			n++
		}
	}
	if n == 0 {
		return 0, 0
	}
	return total / float64(n), n
}
