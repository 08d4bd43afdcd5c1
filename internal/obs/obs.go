// Package obs is the server's observability layer: a zero-dependency
// per-request span recorder (request tracing), the ipcomp_stage_seconds
// histograms derived from it, and a minimal leveled logger — all
// hand-rolled in the same spirit as the repo's CPUID dispatch and
// Prometheus exposition writer, so the module keeps zero external
// dependencies.
//
// The design constraint that shapes the API: with tracing disabled (the
// default) the warm serve path must stay allocation-free. Every method of
// *Trace is therefore nil-safe — a disabled request carries a nil *Trace
// and each recording hook costs one pointer comparison, no time.Now(), no
// allocation. Only sampled requests pay for timing, span appends, and the
// snapshot taken at Finish.
package obs

import (
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Stage enumerates the fixed span kinds of a request. The set is closed
// on purpose: a bounded label space keeps the stage histograms one atomic
// increment per observation and makes traces comparable across nodes.
type Stage uint8

const (
	// StageAdmission is time spent waiting for a decode slot.
	StageAdmission Stage = iota
	// StageWarmSweep is the cached-tile sweep of a retrieval.
	StageWarmSweep
	// StageTileDecode is the cold fan-out: decoding or refining tiles.
	StageTileDecode
	// StageEntropyDecode is entropy-codec block decode time, summed across
	// the decode workers (a sub-span of StageTileDecode; parallel workers
	// can make it exceed the tile-decode wall time).
	StageEntropyDecode
	// StageBackendFetch is archive span reads against the storage backend,
	// summed per request (origin Range fetches on an edge node).
	StageBackendFetch
	// StageClusterForward is a forwarded request's full round trip to the
	// owning peer, failover rounds included.
	StageClusterForward
	// StageRelay is copying the response body out to the client.
	StageRelay
	// StageIngestCompress is tile compression on the write path.
	StageIngestCompress
	numStages
)

var stageNames = [numStages]string{
	"admission", "warm_sweep", "tile_decode", "entropy_decode",
	"backend_fetch", "cluster_forward", "relay", "ingest_compress",
}

// String returns the stage's label value in ipcomp_stage_seconds.
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "unknown"
}

// stageByName inverts String for decoding propagated span headers.
var stageByName = func() map[string]Stage {
	m := make(map[string]Stage, numStages)
	for s := Stage(0); s < numStages; s++ {
		m[s.String()] = s
	}
	return m
}()

// Header names of the trace context. TraceHeader carries the trace id on
// cluster forwards and backend origin fetches (request direction);
// SpansHeader carries the serving node's recorded spans back to the
// forwarding node (response direction), where they are merged into the
// originating trace and stripped before the relay to the client.
const (
	TraceHeader = "X-Ipcomp-Trace"
	SpansHeader = "X-Ipcomp-Trace-Spans"
)

// Span is one timed stage of a request. Node is empty for spans recorded
// by the node that owns the trace and names the serving peer for spans
// merged from a forwarded hop.
type Span struct {
	Stage Stage
	Node  string
	Start time.Time
	Dur   time.Duration
}

// Trace is one sampled request's span recorder. A nil *Trace is the
// disabled fast path: every method is a no-op behind one nil check.
// Methods are safe for concurrent use (decode fan-outs record from
// worker goroutines).
type Trace struct {
	rec    *Recorder
	id     string
	route  string
	target string
	joined bool // arrived with a propagated trace id
	start  time.Time

	mu    sync.Mutex
	spans []Span
}

// ID returns the trace id, or "" on a nil trace.
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// observe appends one span.
func (t *Trace) observe(s Stage, node string, start time.Time, d time.Duration) {
	t.mu.Lock()
	t.spans = append(t.spans, Span{Stage: s, Node: node, Start: start, Dur: d})
	t.mu.Unlock()
}

// ObserveStage records a span of duration d ending now — the shape of
// callback-reported timings (the store's RetrieveOptions.Stage). It is
// the method value handed to the store, so its receiver may be nil.
func (t *Trace) ObserveStage(s Stage, d time.Duration) {
	if t == nil || d <= 0 {
		return
	}
	t.observe(s, "", time.Now().Add(-d), d)
}

// SpanTimer times one explicitly bracketed span; the zero value (from a
// nil trace) is inert.
type SpanTimer struct {
	t     *Trace
	stage Stage
	start time.Time
}

// Begin starts timing a span; call End on the returned timer.
func (t *Trace) Begin(s Stage) SpanTimer {
	if t == nil {
		return SpanTimer{}
	}
	return SpanTimer{t: t, stage: s, start: time.Now()}
}

// End records the span begun by Begin. No-op on the zero timer.
func (st SpanTimer) End() {
	if st.t == nil {
		return
	}
	st.t.observe(st.stage, "", st.start, time.Since(st.start))
}

// MergeRemote decodes a SpansHeader value from the named serving peer and
// appends its spans tagged with that node name.
func (t *Trace) MergeRemote(node, encoded string) {
	if t == nil || encoded == "" {
		return
	}
	spans := DecodeSpans(encoded, node)
	if len(spans) == 0 {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, spans...)
	t.mu.Unlock()
}

// EncodeSpans serializes the trace's locally recorded spans for the
// SpansHeader response header. It returns "" unless the trace was joined
// (only forwarded hops publish spans upstream) or has nothing to report.
func (t *Trace) EncodeSpans() string {
	if t == nil || !t.joined {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var b strings.Builder
	n := 0
	for _, sp := range t.spans {
		if sp.Node != "" {
			continue // never re-publish spans merged from elsewhere
		}
		if n > 0 {
			b.WriteByte(',')
		}
		b.WriteString(sp.Stage.String())
		b.WriteByte(':')
		b.WriteString(strconv.FormatInt(sp.Start.UnixNano(), 10))
		b.WriteByte(':')
		b.WriteString(strconv.FormatInt(int64(sp.Dur), 10))
		n++
	}
	return b.String()
}

// maxHeaderSpans bounds DecodeSpans against a hostile or corrupt header.
const maxHeaderSpans = 128

// DecodeSpans parses a SpansHeader value ("stage:startUnixNano:durNano"
// entries, comma-separated), tagging every span with the given node name.
// Malformed or unknown entries are skipped — a version-skewed peer must
// degrade to fewer spans, not a failed relay.
func DecodeSpans(s, node string) []Span {
	var out []Span
	for _, ent := range strings.Split(s, ",") {
		if len(out) == maxHeaderSpans {
			break
		}
		name, rest, ok := strings.Cut(ent, ":")
		if !ok {
			continue
		}
		stage, ok := stageByName[name]
		if !ok {
			continue
		}
		startS, durS, ok := strings.Cut(rest, ":")
		if !ok {
			continue
		}
		startNS, err1 := strconv.ParseInt(startS, 10, 64)
		durNS, err2 := strconv.ParseInt(durS, 10, 64)
		if err1 != nil || err2 != nil || durNS < 0 {
			continue
		}
		out = append(out, Span{Stage: stage, Node: node, Start: time.Unix(0, startNS), Dur: time.Duration(durNS)})
	}
	return out
}

// SpanDoc is one span in a finished trace's JSON document.
type SpanDoc struct {
	Stage string `json:"stage"`
	Node  string `json:"node,omitempty"`
	// StartUnixNano timestamps the span on the recording node's clock;
	// OffsetNanos is its start relative to the trace start (negative if a
	// merged remote clock runs behind).
	StartUnixNano int64 `json:"start_unix_nano"`
	OffsetNanos   int64 `json:"offset_nanos"`
	DurationNanos int64 `json:"duration_nanos"`
}

// TraceDoc is the JSON document of one finished trace, served by
// GET /debug/traces/{id}.
type TraceDoc struct {
	ID            string `json:"id"`
	Node          string `json:"node,omitempty"`
	Route         string `json:"route"`
	Target        string `json:"target,omitempty"`
	StartUnixNano int64  `json:"start_unix_nano"`
	DurationNanos int64  `json:"duration_nanos"`
	// Coverage is the fraction of the trace's wall time covered by the
	// union of its span intervals — how much of the latency the named
	// stages explain.
	Coverage float64   `json:"coverage"`
	Spans    []SpanDoc `json:"spans"`
}

// StageBreakdown aggregates the trace's span durations per (node, stage)
// for one-line logging: "warm_sweep=12µs n2/tile_decode=3.1ms ...".
func (d *TraceDoc) StageBreakdown() string {
	type agg struct {
		key string
		dur time.Duration
	}
	var order []string
	byKey := make(map[string]time.Duration)
	for _, sp := range d.Spans {
		key := sp.Stage
		if sp.Node != "" {
			key = sp.Node + "/" + sp.Stage
		}
		if _, ok := byKey[key]; !ok {
			order = append(order, key)
		}
		byKey[key] += time.Duration(sp.DurationNanos)
	}
	parts := make([]string, 0, len(order))
	for _, key := range order {
		parts = append(parts, key+"="+byKey[key].Round(time.Microsecond).String())
	}
	return strings.Join(parts, " ")
}

// coverage computes the fraction of [start, start+dur] covered by the
// union of the spans' intervals.
func coverage(spans []Span, start time.Time, dur time.Duration) float64 {
	if dur <= 0 || len(spans) == 0 {
		return 0
	}
	type iv struct{ lo, hi int64 }
	end := dur.Nanoseconds()
	ivs := make([]iv, 0, len(spans))
	for _, sp := range spans {
		lo := sp.Start.Sub(start).Nanoseconds()
		hi := lo + sp.Dur.Nanoseconds()
		if lo < 0 {
			lo = 0
		}
		if hi > end {
			hi = end
		}
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var covered, curLo, curHi int64
	curLo, curHi = ivs[0].lo, ivs[0].hi
	for _, v := range ivs[1:] {
		if v.lo <= curHi {
			if v.hi > curHi {
				curHi = v.hi
			}
			continue
		}
		covered += curHi - curLo
		curLo, curHi = v.lo, v.hi
	}
	covered += curHi - curLo
	return float64(covered) / float64(end)
}
