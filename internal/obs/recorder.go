package obs

import (
	"math/rand/v2"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Options configures a Recorder. The zero value means disabled: Start
// returns nil for every request and the serve path stays on its
// allocation-free fast path.
type Options struct {
	// Sample records every Nth request (1 = all). 0 disables sampling.
	Sample int
	// Slow, when > 0, records every request and flags those whose total
	// duration reaches the threshold: they are fed to OnSlow and compete
	// for the keep-the-slowest reservoir. Recording every request costs a
	// few allocations per request; leave at 0 on hot serving tiers and
	// rely on Sample instead.
	Slow time.Duration
	// Node names this node in trace ids and merged spans; defaults to
	// "node" (standalone deployments).
	Node string
	// OnSlow, when set, is called synchronously with the finished trace
	// document of every request slower than Slow.
	OnSlow func(TraceDoc)
}

// The capacities of the recent-traces ring and of the keep-the-slowest
// reservoir.
const (
	recentTraces  = 64
	slowestTraces = 16
)

// Recorder samples requests into Traces, keeps a bounded ring of recent
// trace documents plus a keep-the-slowest reservoir, and aggregates every
// recorded span into per-stage latency histograms (ipcomp_stage_seconds).
// A nil *Recorder is valid and permanently disabled.
type Recorder struct {
	opts Options
	// procTag makes ids from distinct processes (or distinct Recorders in
	// one test binary) collision-free even though seq restarts at zero.
	procTag uint64
	seq     atomic.Uint64
	pool    sync.Pool

	stages [numStages]*Histogram

	mu      sync.Mutex
	ring    []TraceDoc // newest at ring[ringN-1 mod len], bounded
	ringN   int        // total finished traces, ring index = ringN % len
	slowest []TraceDoc // sorted slowest-first, bounded by slowestTraces
}

// NewRecorder builds a Recorder; see Options for defaults.
func NewRecorder(opts Options) *Recorder {
	if opts.Node == "" {
		opts.Node = "node"
	}
	r := &Recorder{
		opts:    opts,
		procTag: rand.Uint64(),
		ring:    make([]TraceDoc, 0, recentTraces),
	}
	for s := range r.stages {
		r.stages[s] = NewHistogram(stageBuckets[:])
	}
	r.pool.New = func() any { return &Trace{} }
	return r
}

// Enabled reports whether any request can be recorded at all. When false
// the server skips trace setup entirely.
func (r *Recorder) Enabled() bool {
	return r != nil && (r.opts.Sample > 0 || r.opts.Slow > 0)
}

// Node returns the configured node name ("" on a nil recorder).
func (r *Recorder) Node() string {
	if r == nil {
		return ""
	}
	return r.opts.Node
}

// Start begins a trace for a locally originated request, or returns nil
// if this request is not sampled. route/target label the finished
// document ("region", "ingest", ... / dataset or container name).
func (r *Recorder) Start(route, target string) *Trace {
	if !r.Enabled() {
		return nil
	}
	n := r.seq.Add(1)
	if r.opts.Slow <= 0 && int(n%uint64(r.opts.Sample)) != 0 {
		return nil
	}
	t := r.pool.Get().(*Trace)
	*t = Trace{rec: r, id: r.newID(n), route: route, target: target, start: time.Now(), spans: t.spans[:0]}
	return t
}

// Join begins a trace that continues a propagated id from another node.
// Joined requests are always recorded (the originating node already
// decided to sample) and publish their spans back via SpansHeader.
func (r *Recorder) Join(id, route, target string) *Trace {
	if r == nil || id == "" || len(id) > 200 {
		return nil
	}
	t := r.pool.Get().(*Trace)
	*t = Trace{rec: r, id: id, route: route, target: target, joined: true, start: time.Now(), spans: t.spans[:0]}
	return t
}

func (r *Recorder) newID(seq uint64) string {
	var b strings.Builder
	b.WriteString(r.opts.Node)
	b.WriteByte('-')
	b.WriteString(strconv.FormatUint(r.procTag&0xffffff, 36))
	b.WriteByte('-')
	b.WriteString(strconv.FormatUint(seq, 36))
	return b.String()
}

// Finish closes the trace: the duration is measured, spans are folded
// into the stage histograms, and the snapshot document enters the recent
// ring and (if slow enough) the slowest reservoir. The Trace must not be
// used afterwards. Nil-safe.
func (r *Recorder) Finish(t *Trace) {
	if r == nil || t == nil {
		return
	}
	dur := time.Since(t.start)
	t.mu.Lock()
	spans := t.spans
	doc := TraceDoc{
		ID:            t.id,
		Node:          r.opts.Node,
		Route:         t.route,
		Target:        t.target,
		StartUnixNano: t.start.UnixNano(),
		DurationNanos: dur.Nanoseconds(),
		Coverage:      coverage(spans, t.start, dur),
		Spans:         make([]SpanDoc, len(spans)),
	}
	for i, sp := range spans {
		doc.Spans[i] = SpanDoc{
			Stage:         sp.Stage.String(),
			Node:          sp.Node,
			StartUnixNano: sp.Start.UnixNano(),
			OffsetNanos:   sp.Start.Sub(t.start).Nanoseconds(),
			DurationNanos: sp.Dur.Nanoseconds(),
		}
		// Only locally recorded spans feed this node's histograms; merged
		// remote spans are counted by the node that timed them.
		if sp.Node == "" {
			r.stages[sp.Stage].Observe(sp.Dur)
		}
	}
	t.mu.Unlock()
	t.rec = nil
	r.pool.Put(t)

	slow := r.opts.Slow > 0 && dur >= r.opts.Slow

	r.mu.Lock()
	if len(r.ring) < cap(r.ring) {
		r.ring = append(r.ring, doc)
	} else {
		r.ring[r.ringN%len(r.ring)] = doc
	}
	r.ringN++
	// The reservoir keeps the slowest traces seen, slowest first. Any
	// recorded trace competes; the Slow threshold only gates OnSlow.
	i := len(r.slowest)
	for i > 0 && r.slowest[i-1].DurationNanos < doc.DurationNanos {
		i--
	}
	if i < slowestTraces {
		r.slowest = append(r.slowest, TraceDoc{})
		copy(r.slowest[i+1:], r.slowest[i:])
		r.slowest[i] = doc
		if len(r.slowest) > slowestTraces {
			r.slowest = r.slowest[:slowestTraces]
		}
	}
	r.mu.Unlock()

	if slow && r.opts.OnSlow != nil {
		r.opts.OnSlow(doc)
	}
}

// Recent returns the recent-traces ring, newest first.
func (r *Recorder) Recent() []TraceDoc {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]TraceDoc, 0, len(r.ring))
	for i := 0; i < len(r.ring); i++ {
		out = append(out, r.ring[(r.ringN-1-i+len(r.ring)*2)%len(r.ring)])
	}
	if r.ringN < len(r.ring) {
		out = out[:r.ringN]
	}
	return out
}

// Slowest returns the keep-the-slowest reservoir, slowest first.
func (r *Recorder) Slowest() []TraceDoc {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]TraceDoc, len(r.slowest))
	copy(out, r.slowest)
	return out
}

// Get returns the trace with the given id from the ring or reservoir.
func (r *Recorder) Get(id string) (TraceDoc, bool) {
	if r == nil {
		return TraceDoc{}, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.ring {
		if r.ring[i].ID == id {
			return r.ring[i], true
		}
	}
	for i := range r.slowest {
		if r.slowest[i].ID == id {
			return r.slowest[i], true
		}
	}
	return TraceDoc{}, false
}

// stageBuckets are the ipcomp_stage_seconds bucket upper bounds. Stages
// run much shorter than whole requests (a warm sweep is microseconds), so
// the ladder extends the request-histogram ladder three decades down.
var stageBuckets = [...]float64{
	1e-6, 2.5e-6, 5e-6,
	1e-5, 2.5e-5, 5e-5,
	1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3,
	1e-2, 2.5e-2, 5e-2,
	1e-1, 2.5e-1, 5e-1,
	1, 2.5, 5, 10,
}

// RenderStageSeconds appends the ipcomp_stage_seconds family in
// Prometheus text exposition format. Stages with no observations are
// omitted, matching the request-histogram convention.
func (r *Recorder) RenderStageSeconds(b *strings.Builder) {
	if r == nil {
		return
	}
	b.WriteString("# HELP ipcomp_stage_seconds Time spent per request stage (from sampled traces).\n")
	b.WriteString("# TYPE ipcomp_stage_seconds histogram\n")
	for s := Stage(0); s < numStages; s++ {
		r.stages[s].Render(b, "ipcomp_stage_seconds", `stage="`+s.String()+`"`)
	}
}
