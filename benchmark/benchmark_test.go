package main

import (
	"math"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/grid"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

func testManifest(t *testing.T) (string, *manifest) {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	man, err := loadManifest(root)
	if err != nil {
		t.Fatal(err)
	}
	return root, man
}

// The lists in spec.go and BENCHMARK.json must be the same lists.
func TestMetricNamesMatchManifest(t *testing.T) {
	_, man := testManifest(t)
	check := func(kind string, specs []metricSpec, listed []manifestMetric) {
		if len(specs) != len(listed) {
			t.Errorf("%s: spec.go lists %d metrics, BENCHMARK.json %d", kind, len(specs), len(listed))
		}
		for i := 0; i < min(len(specs), len(listed)); i++ {
			s, m := specs[i], listed[i]
			if s.name != m.Name || s.unit != m.Unit {
				t.Errorf("%s #%d: spec.go has %s [%s], BENCHMARK.json %s [%s]", kind, i, s.name, s.unit, m.Name, m.Unit)
			}
			if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) {
				t.Errorf("%s: %q [%q] is outside the allowed alphabet", kind, m.Name, m.Unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: %s has direction %q", kind, m.Name, m.Better)
			}
		}
	}
	check("end_to_end", endToEnd, man.EndToEnd)
	check("per_layer", perLayer, man.PerLayer)
	setup := false
	for _, m := range man.EndToEnd {
		if !(m.Bound > 0 && m.Bound <= 0.25) {
			t.Errorf("%s: bound %g is outside (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("end_to_end lacks setup_s [s], lower is better")
	}
	var names []string
	for _, w := range man.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("workloads: BENCHMARK.json has %v, spec.go %v", names, workloadNames)
	}
	if man.RunSeconds != runSeconds {
		t.Errorf("run_seconds: BENCHMARK.json has %d, spec.go %d", man.RunSeconds, runSeconds)
	}
	for _, w := range workloadNames {
		if len(native[w]) == 0 {
			t.Errorf("%s has no native metric", w)
		}
		for _, n := range native[w] {
			if !slices.ContainsFunc(endToEnd, func(s metricSpec) bool { return s.name == n }) {
				t.Errorf("%s: native metric %s is not an end-to-end metric", w, n)
			}
		}
	}
}

// Every workload, shrunk, in both modes: exactly the manifest's metric
// names come out, each with its unit, no operation fails, and no
// end-to-end metric is zero. The child-process workloads build and start
// ipcompd, so -short leaves them out.
func TestWorkloadsEmitManifestMetrics(t *testing.T) {
	root, man := testManifest(t)
	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			mode := map[bool]string{false: "untraced", true: "traced"}[trace]
			t.Run(name+"/"+mode, func(t *testing.T) {
				if testing.Short() && name != "codec_field" {
					t.Skip("starts ipcompd as a child process")
				}
				res, err := runWorkload(root, name, 7, 1, trace, true)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("%d of %d operations failed: %s", res.Failed, res.Attempted, res.FirstError)
				}
				want := man.EndToEnd
				if trace {
					want = man.PerLayer
				}
				var got, listed []string
				for n := range res.Metrics {
					got = append(got, n)
				}
				for _, m := range want {
					listed = append(listed, m.Name)
					v, ok := res.Metrics[m.Name]
					if !ok {
						continue
					}
					if v.Unit != m.Unit {
						t.Errorf("%s: unit %q, BENCHMARK.json says %q", m.Name, v.Unit, m.Unit)
					}
					if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || (!trace && v.Value == 0) {
						t.Errorf("%s = %g", m.Name, v.Value)
					}
				}
				sort.Strings(got)
				sort.Strings(listed)
				if strings.Join(got, " ") != strings.Join(listed, " ") {
					t.Errorf("metrics emitted:\n %v\nBENCHMARK.json lists:\n %v", got, listed)
				}
				if trace {
					if len(res.Spans) == 0 || len(res.Budget) == 0 {
						t.Errorf("traced run wrote %d spans and %d budget lines", len(res.Spans), len(res.Budget))
					}
					for _, s := range res.Spans {
						if name == "codec_field" && (strings.HasPrefix(s.Name, "store.") || strings.HasPrefix(s.Name, "server.") || strings.HasPrefix(s.Name, "cas.")) {
							t.Fatalf("codec_field entered %s", s.Name)
						}
					}
				}
			})
		}
	}
}

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	ms := make([]float64, 1000)
	for i := range ms {
		ms[i] = float64(i + 1)
	}
	if s := summarize(ms); s.TailPct != 99 || s.Tail < 990 || s.Tail > 991 || s.P50 != 500.5 {
		t.Errorf("summarize(1..1000) = %+v", s)
	}
	if s := summarizeAt(ms, 95); s.TailPct != 95 {
		t.Errorf("summarizeAt capped at 95 reports p%g", s.TailPct)
	}
}

// An operation that stalls its connection must show up in the latency of
// the operations that were due while it was stalled: their clocks start
// when they were due, not when a connection came free.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const stall = 200 * time.Millisecond
	due := make([]time.Duration, 8)
	for i := range due {
		due[i] = time.Duration(i) * 10 * time.Millisecond
	}
	out := openLoop(1, due, func(w, i int) []round {
		r := round{kind: "op", start: time.Now()}
		if i == 1 {
			time.Sleep(stall)
		} else {
			time.Sleep(time.Millisecond)
		}
		r.done = time.Now()
		return []round{r}
	})
	if len(out.samples) != len(due) {
		t.Fatalf("%d samples for %d operations", len(out.samples), len(due))
	}
	// Samples are appended in completion order, which with one worker is
	// arrival order.
	first, stalled, behind := out.samples[0], out.samples[1], out.samples[2]
	if first.latency > 100 {
		t.Errorf("operation ahead of the stall took %.1f ms", first.latency)
	}
	if stalled.latency < ms(stall) {
		t.Errorf("stalled operation reports %.1f ms", stalled.latency)
	}
	// Due 10 ms after the stalled one, served only once it finished.
	if behind.service > 100 || behind.latency < ms(stall)-15 || behind.wait < ms(stall)-15 {
		t.Errorf("operation queued behind the stall: service %.1f ms, latency %.1f ms, wait %.1f ms; the stall must be in latency and wait, not in service",
			behind.service, behind.latency, behind.wait)
	}
	last := out.samples[len(due)-1]
	if last.latency < ms(stall)-80 {
		t.Errorf("last queued operation reports %.1f ms; the backlog drains one millisecond at a time", last.latency)
	}
}

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "child", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "child", Start: 20, End: 50}, // overlaps the first
		{ID: 4, Parent: 1, Name: "hook", Start: 90, End: 120}, // sticks out of the parent
		{ID: 5, Parent: 2, Name: "grandchild", Start: 12, End: 18},
	}
	self := selfNanos(spans)
	for id, want := range map[int]int64{1: 50, 2: 14, 3: 30, 4: 30, 5: 6} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
	lts := layerTimes(spans)
	if m, n := meanMs(lts, "child"); n != 2 || m != 25e-6 {
		t.Errorf("meanMs(child) = %g over %d", m, n)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{10, 20, 30, 40, 50}, [3]float64{15, 30, 45}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestOracle(t *testing.T) {
	f := &field{shape: grid.Shape{2, 2, 4}, f64: []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}}
	lo, hi := []int{0, 1, 1}, []int{2, 2, 3}
	exact := []float64{5, 6, 13, 14}
	if err := checkBox(f, "t", lo, hi, exact, advert{requested: 0.5, guaranteed: 0.1}); err != nil {
		t.Errorf("exact box rejected: %v", err)
	}
	off := []float64{5, 6.2, 13, 14}
	if err := checkBox(f, "t", lo, hi, off, advert{requested: 0.5, guaranteed: 0.1}); err == nil {
		t.Error("a value 0.2 off passed a guarantee of 0.1")
	}
	if err := checkBox(f, "t", lo, hi, off, advert{requested: 0.5, guaranteed: 0.25}); err != nil {
		t.Errorf("a value 0.2 off failed a guarantee of 0.25: %v", err)
	}
	if err := checkBox(f, "t", lo, hi, exact, advert{requested: 0.1, guaranteed: 0.2}); err == nil {
		t.Error("a guarantee looser than the request passed undegraded")
	}
	if err := checkBox(f, "t", lo, hi, exact, advert{requested: 0.1, guaranteed: 0.2, degraded: true}); err != nil {
		t.Errorf("a degraded answer within its own guarantee failed: %v", err)
	}
	if err := checkBox(f, "t", lo, hi, []float64{5, math.NaN(), 13, 14}, advert{requested: 1, guaranteed: 1}); err == nil {
		t.Error("NaN passed")
	}
	if err := checkBox(f, "t", lo, hi, exact[:3], advert{requested: 1, guaranteed: 1}); err == nil {
		t.Error("a short box passed")
	}
	// The same box held as a crop at its dataset origin.
	crop := &field{shape: grid.Shape{2, 1, 2}, f64: exact, origin: lo}
	if err := checkBox(crop, "t", lo, hi, exact, advert{requested: 0.5, guaranteed: 0}); err != nil {
		t.Errorf("crop at its origin rejected: %v", err)
	}
	tl := &tally{}
	tl.count(nil)
	tl.count(checkBox(f, "t", lo, hi, off, advert{requested: 0.5, guaranteed: 0.1}))
	if tl.attempted != 2 || tl.failed != 1 || tl.first == nil {
		t.Errorf("tally = %+v", tl)
	}
}

func TestVerdict(t *testing.T) {
	for _, c := range []struct {
		worse, spread, bound float64
		want                 string
	}{
		{0.02, 0.05, 0.25, "unchanged"},
		{0.30, 0.05, 0.25, "regressed"},
		{-0.30, 0.05, 0.25, "improved"},
		{-0.20, 0.05, 0.25, "unchanged"}, // better by less than would count as a regression the other way
		{0.30, 0.40, 0.25, "unresolved"},
		{-0.30, 0.40, 0.25, "unresolved"},
	} {
		if got := verdict(c.worse, c.spread, c.bound); got != c.want {
			t.Errorf("verdict(worse %g, spread %g, bound %g) = %s, want %s", c.worse, c.spread, c.bound, got, c.want)
		}
	}
}

// compareFiles writes one result file per side and runs the gate.
func compareFiles(t *testing.T, a, b runFile) (string, error) {
	t.Helper()
	root, _ := testManifest(t)
	dir := t.TempDir()
	pa, pb := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	if err := writeRunFile(pa, &a); err != nil {
		t.Fatal(err)
	}
	if err := writeRunFile(pb, &b); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	err := runCompare(root, pa, pb, &out)
	return out.String(), err
}

// codecRun is a codec_field result file with every end-to-end metric at
// 100 but those given.
func codecRun(seed int64, seconds float64, vals map[string]float64) runFile {
	r := result{Workload: "codec_field", Correct: true, Attempted: 10, Metrics: map[string]metric{}}
	for _, s := range endToEnd {
		r.Metrics[s.name] = metric{Value: 100, Unit: s.unit}
	}
	for n, v := range vals {
		r.Metrics[n] = metric{Value: v, Unit: "x"}
	}
	return runFile{Schema: 1, Env: env{Seed: seed, Seconds: seconds}, Results: []result{r}}
}

func TestCompareGate(t *testing.T) {
	base := codecRun(1, runSeconds, nil)
	if out, err := compareFiles(t, base, base); err != nil || strings.Contains(out, "regressed") || strings.Contains(out, "improved") {
		t.Errorf("a file against itself: %v\n%s", err, out)
	}
	// A count is held to countBound between runs of one seed: 2 % off is a
	// regression although BENCHMARK.json allows 5 % across seeds.
	if out, err := compareFiles(t, base, codecRun(1, runSeconds, map[string]float64{"ratio": 98})); err == nil || !strings.Contains(out, "regressed") {
		t.Errorf("ratio 100 -> 98 on one seed passed: %v\n%s", err, out)
	}
	// With different seeds it cannot be told that closely.
	if out, err := compareFiles(t, base, codecRun(2, runSeconds, map[string]float64{"ratio": 98})); err != nil || !strings.Contains(out, "unresolved") {
		t.Errorf("ratio across seeds: %v\n%s", err, out)
	}
	// A carried value is not gated: capacity_rps is not codec_field's.
	if out, err := compareFiles(t, base, codecRun(1, runSeconds, map[string]float64{"capacity_rps": 10})); err != nil || strings.Contains(out, "capacity_rps") {
		t.Errorf("a carried value was gated: %v\n%s", err, out)
	}
	// Another run length, a missing metric and a missing workload are errors.
	if _, err := compareFiles(t, base, codecRun(1, 10, nil)); err == nil {
		t.Error("a 10 s run compared against a 30 s one")
	}
	lacking := codecRun(1, runSeconds, nil)
	delete(lacking.Results[0].Metrics, "compress_mbps")
	if _, err := compareFiles(t, base, lacking); err == nil {
		t.Error("a side without compress_mbps compared")
	}
	other := codecRun(1, runSeconds, nil)
	other.Results[0].Workload = "ingest_series"
	if _, err := compareFiles(t, base, other); err == nil {
		t.Error("sides that ran different workloads compared")
	}
	// More failures is a regression whatever the metrics say.
	failing := codecRun(1, runSeconds, nil)
	failing.Results[0].Failed = 1
	if _, err := compareFiles(t, base, failing); err == nil {
		t.Error("a higher fail share passed")
	}
}

func TestDeltaMatchesWholeFamilyNames(t *testing.T) {
	before := &scrape{series: parseMetrics("a_total 1\na_total_more 5\nh_sum{route=\"region\",format=\"raw\"} 1.5\n")}
	after := &scrape{series: parseMetrics("# HELP a_total x\na_total 4\na_total_more 50\nh_sum{route=\"region\",format=\"raw\"} 2.5\nh_sum{route=\"ingest\"} 9\n")}
	if d := delta(before, after, "a_total"); d != 3 {
		t.Errorf("delta(a_total) = %g, want 3", d)
	}
	if d := delta(before, after, "h_sum", `route="region"`); d != 1 {
		t.Errorf("delta(h_sum, region) = %g, want 1", d)
	}
	if d := delta(before, after, "h_sum"); d != 10 {
		t.Errorf("delta(h_sum) = %g, want 10", d)
	}
}
