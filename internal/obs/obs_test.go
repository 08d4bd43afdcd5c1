package obs

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

func TestStageNamesRoundTrip(t *testing.T) {
	for s := Stage(0); s < numStages; s++ {
		name := s.String()
		if name == "" || name == "unknown" {
			t.Fatalf("stage %d has no name", s)
		}
		got, ok := stageByName[name]
		if !ok || got != s {
			t.Fatalf("stage %q does not round-trip: got %v ok=%v", name, got, ok)
		}
	}
	if Stage(200).String() != "unknown" {
		t.Fatalf("out-of-range stage should stringify as unknown")
	}
}

func TestNilTraceIsInert(t *testing.T) {
	var tr *Trace
	if tr.ID() != "" {
		t.Fatalf("nil trace id = %q", tr.ID())
	}
	tr.Begin(StageRelay).End()
	tr.ObserveStage(StageWarmSweep, time.Millisecond)
	tr.MergeRemote("n2", "relay:1:2")
	if tr.EncodeSpans() != "" {
		t.Fatalf("nil trace encodes spans")
	}
	var rec *Recorder
	if rec.Enabled() {
		t.Fatalf("nil recorder enabled")
	}
	if rec.Start("region", "x") != nil || rec.Join("id", "region", "x") != nil {
		t.Fatalf("nil recorder started a trace")
	}
	rec.Finish(nil)
	if got := rec.Recent(); got != nil {
		t.Fatalf("nil recorder has recent traces: %v", got)
	}
}

func TestSpanEncodeDecode(t *testing.T) {
	rec := NewRecorder(Options{Sample: 1})
	tr := rec.Join("abc", "region", "d0")
	st := tr.Begin(StageWarmSweep)
	time.Sleep(time.Millisecond)
	st.End()
	tr.ObserveStage(StageBackendFetch, 5*time.Millisecond)
	// Merged remote spans must not be re-published.
	tr.MergeRemote("n2", "tile_decode:100:200")

	enc := tr.EncodeSpans()
	if enc == "" {
		t.Fatalf("joined trace encoded no spans")
	}
	spans := DecodeSpans(enc, "n1")
	if len(spans) != 2 {
		t.Fatalf("decoded %d spans, want 2 (got %q)", len(spans), enc)
	}
	if spans[0].Stage != StageWarmSweep || spans[1].Stage != StageBackendFetch {
		t.Fatalf("decoded stages %v %v", spans[0].Stage, spans[1].Stage)
	}
	for _, sp := range spans {
		if sp.Node != "n1" {
			t.Fatalf("decoded node %q, want n1", sp.Node)
		}
		if sp.Dur <= 0 {
			t.Fatalf("decoded non-positive duration %v", sp.Dur)
		}
	}
	if spans[1].Dur != 5*time.Millisecond {
		t.Fatalf("ObserveStage duration %v, want 5ms", spans[1].Dur)
	}
}

func TestDecodeSpansMalformed(t *testing.T) {
	cases := []string{
		"", ",,,", "nosuchstage:1:2", "relay:x:2", "relay:1:x",
		"relay:1:-5", "relay", "relay:1",
	}
	for _, c := range cases {
		if got := DecodeSpans(c, "n"); len(got) != 0 {
			t.Fatalf("DecodeSpans(%q) = %d spans, want 0", c, len(got))
		}
	}
	// One good entry among garbage survives.
	got := DecodeSpans("junk,relay:100:200,alsojunk:1:2", "n")
	if len(got) != 1 || got[0].Stage != StageRelay || got[0].Dur != 200 {
		t.Fatalf("mixed decode = %+v", got)
	}
	// Bounded against hostile headers.
	huge := strings.Repeat("relay:1:2,", maxHeaderSpans*2)
	if got := DecodeSpans(huge, "n"); len(got) != maxHeaderSpans {
		t.Fatalf("hostile header decoded %d spans, want cap %d", len(got), maxHeaderSpans)
	}
}

func TestRecorderSampling(t *testing.T) {
	rec := NewRecorder(Options{Sample: 4})
	var hits int
	for i := 0; i < 40; i++ {
		if tr := rec.Start("region", "d"); tr != nil {
			hits++
			rec.Finish(tr)
		}
	}
	if hits != 10 {
		t.Fatalf("sample=4 recorded %d of 40, want 10", hits)
	}
	// Slow mode records everything.
	rec = NewRecorder(Options{Sample: 1000, Slow: time.Hour})
	if tr := rec.Start("region", "d"); tr == nil {
		t.Fatalf("slow mode should record every request")
	}
}

func TestRecorderRingAndSlowest(t *testing.T) {
	rec := NewRecorder(Options{Sample: 1})
	for i := 0; i < recentTraces+6; i++ {
		tr := rec.Start("region", "d")
		tr.ObserveStage(StageWarmSweep, time.Duration(i+1)*time.Millisecond)
		rec.Finish(tr)
	}
	recent := rec.Recent()
	if len(recent) != recentTraces {
		t.Fatalf("ring holds %d, want %d", len(recent), recentTraces)
	}
	for _, doc := range recent {
		if doc.Route != "region" || doc.Node != "node" {
			t.Fatalf("doc %+v", doc)
		}
		if got, ok := rec.Get(doc.ID); !ok || got.ID != doc.ID {
			t.Fatalf("Get(%q) missing", doc.ID)
		}
	}
	slow := rec.Slowest()
	if len(slow) != slowestTraces {
		t.Fatalf("reservoir holds %d, want %d", len(slow), slowestTraces)
	}
	for i := 1; i < len(slow); i++ {
		if slow[i-1].DurationNanos < slow[i].DurationNanos {
			t.Fatalf("reservoir not slowest-first: %d < %d", slow[i-1].DurationNanos, slow[i].DurationNanos)
		}
	}
	if _, ok := rec.Get("nope"); ok {
		t.Fatalf("Get(nope) found a trace")
	}
}

func TestRecorderOnSlow(t *testing.T) {
	var got []TraceDoc
	rec := NewRecorder(Options{Slow: time.Nanosecond, OnSlow: func(d TraceDoc) { got = append(got, d) }})
	tr := rec.Start("region", "d")
	time.Sleep(time.Microsecond)
	rec.Finish(tr)
	if len(got) != 1 {
		t.Fatalf("OnSlow fired %d times, want 1", len(got))
	}
	if got[0].Route != "region" || got[0].DurationNanos <= 0 {
		t.Fatalf("slow doc %+v", got[0])
	}
}

func TestCoverage(t *testing.T) {
	start := time.Unix(0, 0)
	dur := 100 * time.Nanosecond
	full := []Span{{Start: start, Dur: dur}}
	if c := coverage(full, start, dur); c < 0.999 || c > 1.001 {
		t.Fatalf("full coverage = %v", c)
	}
	// Two overlapping spans covering [0,60) and [40,80) = 80%.
	two := []Span{
		{Start: start, Dur: 60},
		{Start: start.Add(40), Dur: 40},
	}
	if c := coverage(two, start, dur); c < 0.799 || c > 0.801 {
		t.Fatalf("overlap coverage = %v, want 0.8", c)
	}
	// Spans outside the window clip to zero.
	out := []Span{{Start: start.Add(-200), Dur: 50}}
	if c := coverage(out, start, dur); c != 0 {
		t.Fatalf("out-of-window coverage = %v", c)
	}
	if c := coverage(nil, start, dur); c != 0 {
		t.Fatalf("empty coverage = %v", c)
	}
}

func TestRenderStageSeconds(t *testing.T) {
	rec := NewRecorder(Options{Sample: 1})
	tr := rec.Start("region", "d")
	tr.ObserveStage(StageWarmSweep, 3*time.Microsecond)
	tr.ObserveStage(StageWarmSweep, 30*time.Millisecond)
	// Remote spans must not feed local histograms.
	tr.MergeRemote("n2", "tile_decode:100:2000000")
	rec.Finish(tr)

	var b strings.Builder
	rec.RenderStageSeconds(&b)
	out := b.String()

	for _, want := range []string{
		"# TYPE ipcomp_stage_seconds histogram\n",
		`ipcomp_stage_seconds_bucket{stage="warm_sweep",le="+Inf"} 2`,
		`ipcomp_stage_seconds_count{stage="warm_sweep"} 2`,
		`ipcomp_stage_seconds_sum{stage="warm_sweep"} `,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q in:\n%s", want, out)
		}
	}
	if strings.Contains(out, `stage="tile_decode"`) {
		t.Fatalf("remote span leaked into local histograms:\n%s", out)
	}
	// Buckets must be cumulative and monotone.
	var prev int64 = -1
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, `ipcomp_stage_seconds_bucket{stage="warm_sweep"`) {
			continue
		}
		var v int64
		if _, err := fmtSscan(line[strings.LastIndexByte(line, ' ')+1:], &v); err != nil {
			t.Fatalf("parse %q: %v", line, err)
		}
		if v < prev {
			t.Fatalf("buckets not monotone at %q", line)
		}
		prev = v
	}
	if prev != 2 {
		t.Fatalf("+Inf bucket = %d, want 2", prev)
	}
}

func fmtSscan(s string, v *int64) (int, error) {
	n, err := json.Number(s).Int64()
	*v = n
	return 1, err
}

func TestTraceDocStageBreakdown(t *testing.T) {
	doc := TraceDoc{Spans: []SpanDoc{
		{Stage: "warm_sweep", DurationNanos: int64(2 * time.Millisecond)},
		{Stage: "warm_sweep", DurationNanos: int64(time.Millisecond)},
		{Stage: "tile_decode", Node: "n2", DurationNanos: int64(5 * time.Millisecond)},
	}}
	got := doc.StageBreakdown()
	if !strings.Contains(got, "warm_sweep=3ms") || !strings.Contains(got, "n2/tile_decode=5ms") {
		t.Fatalf("breakdown = %q", got)
	}
}

func TestLoggerFormats(t *testing.T) {
	var b strings.Builder
	l := NewLogger(&b, "text")
	l.Info("hello", "k", "v", "spaced", "a b")
	text := b.String()
	if !strings.Contains(text, "INFO hello k=v") || !strings.Contains(text, `spaced="a b"`) {
		t.Fatalf("text line = %q", text)
	}

	b.Reset()
	l = NewLogger(&b, "json")
	l.Warn("slow request", "trace", "n1-x-1", "dur", 1500*time.Millisecond, "odd")
	line := strings.TrimSpace(b.String())
	var doc map[string]any
	if err := json.Unmarshal([]byte(line), &doc); err != nil {
		t.Fatalf("json line %q: %v", line, err)
	}
	if doc["level"] != "WARN" || doc["msg"] != "slow request" || doc["trace"] != "n1-x-1" {
		t.Fatalf("json doc = %v", doc)
	}
	if doc["dur"] != "1.5s" {
		t.Fatalf("duration rendered as %v", doc["dur"])
	}
	if doc["odd"] != "?" {
		t.Fatalf("dangling key rendered as %v", doc["odd"])
	}
}

// TestStageSecondsGoldenText pins the exposition text of
// ipcomp_stage_seconds byte for byte: the benchmark's scrape keys series
// exactly as /metrics prints them. Durations sit on a bucket's upper bound
// (counted in it), just above one, below the first and beyond the last.
func TestStageSecondsGoldenText(t *testing.T) {
	rec := NewRecorder(Options{Sample: 1})
	tr := rec.Start("region", "d")
	for _, d := range []time.Duration{500 * time.Nanosecond, time.Microsecond, 1001 * time.Nanosecond, 123456789, 11 * time.Second} {
		tr.ObserveStage(StageTileDecode, d)
	}
	tr.ObserveStage(StageRelay, 2500*time.Microsecond)
	rec.Finish(tr)
	var b strings.Builder
	rec.RenderStageSeconds(&b)
	want, err := os.ReadFile("testdata/stage_seconds.golden")
	if err != nil {
		t.Fatal(err)
	}
	if b.String() != string(want) {
		t.Fatalf("ipcomp_stage_seconds text changed:\n%s", b.String())
	}
}
