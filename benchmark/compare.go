package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
)

// -compare is the gate later changes cite: it reads two sets of result
// files (-out files of the untraced run), and for every workload and each
// of its native end-to-end metrics (spec.go) prints both medians with
// their quartiles, the ratio with its base, and a verdict against the
// bound BENCHMARK.json fixes. Anything that would make the two sides
// incomparable — another run length, a workload or metric one side lacks
// — is an error, not a skipped row.

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadManifest(root string) (*manifest, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &m, nil
}

// noiseRecord is benchmark/results/noise.json: the run-to-run spread
// (interquartile range over median) measured on the seed commit, per
// workload and end-to-end metric. It stands in when a side of a
// comparison has too few runs to show its own spread.
type noiseRecord map[string]map[string]struct {
	Median float64 `json:"median"`
	Spread float64 `json:"spread"`
	Runs   int     `json:"runs"`
}

func loadNoise(root string) noiseRecord {
	raw, err := os.ReadFile(filepath.Join(root, "benchmark", "results", "noise.json"))
	if err != nil {
		return nil
	}
	var n noiseRecord
	if json.Unmarshal(raw, &n) != nil {
		return nil
	}
	return n
}

// loadRuns reads a comma-separated list of result files and directories
// (every *.json directly inside one). A file of another run length than
// BENCHMARK.json's is refused.
func loadRuns(arg string, runSeconds int) ([]runFile, error) {
	var paths []string
	for _, p := range strings.Split(arg, ",") {
		st, err := os.Stat(p)
		if err != nil {
			return nil, err
		}
		if !st.IsDir() {
			paths = append(paths, p)
			continue
		}
		inside, err := filepath.Glob(filepath.Join(p, "*.json"))
		if err != nil {
			return nil, err
		}
		sort.Strings(inside)
		paths = append(paths, inside...)
	}
	var runs []runFile
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var rf runFile
		if err := json.Unmarshal(raw, &rf); err != nil || rf.Schema == 0 {
			continue // not a result file (noise.json sits beside them)
		}
		if rf.Env.Trace {
			continue // per-layer runs carry no end-to-end metrics
		}
		if rf.Env.Seconds != float64(runSeconds) {
			return nil, fmt.Errorf("%s ran for %g s, BENCHMARK.json says %d", p, rf.Env.Seconds, runSeconds)
		}
		runs = append(runs, rf)
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("%s holds no untraced result file", arg)
	}
	return runs, nil
}

// quartiles returns the three quartile cut points the way Python's
// statistics.quantiles(xs, n=4) does (the exclusive method), which is
// what the acceptance rule for this benchmark is stated in.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := max(1, min(i*(n+1)/4, n-1))
		d := i*(n+1) - j*4 // outside [0, 4] at the ends: Python extrapolates too
		return (s[j-1]*float64(4-d) + s[j]*float64(d)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// side is one side of a comparison: per workload, each metric's values
// keyed by the seed of the run they came from, and the tally.
type side struct {
	values            map[string]map[string]map[int64][]float64
	failed, attempted map[string]int64
}

// collect gathers a set of runs. A run whose generator fired later than
// its latency figures can bear (serve.go) is left out, and said so.
func collect(runs []runFile, w io.Writer) side {
	s := side{values: make(map[string]map[string]map[int64][]float64), failed: make(map[string]int64), attempted: make(map[string]int64)}
	for _, rf := range runs {
		for _, r := range rf.Results {
			if r.Counts["gen.lateness_over_bound"] != 0 {
				fmt.Fprintf(w, "note: a %s run of seed %d is left out: its generator fired too late for its latency figures to count\n", r.Workload, rf.Env.Seed)
				continue
			}
			s.failed[r.Workload] += r.Failed
			s.attempted[r.Workload] += r.Attempted
			if s.values[r.Workload] == nil {
				s.values[r.Workload] = make(map[string]map[int64][]float64)
			}
			for name, m := range r.Metrics {
				if s.values[r.Workload][name] == nil {
					s.values[r.Workload][name] = make(map[int64][]float64)
				}
				s.values[r.Workload][name][rf.Env.Seed] = append(s.values[r.Workload][name][rf.Env.Seed], m.Value)
			}
		}
	}
	return s
}

func pooledValues(bySeed map[int64][]float64) []float64 {
	var out []float64
	for _, v := range bySeed {
		out = append(out, v...)
	}
	return out
}

// worseBy is how far b is on the wrong side of a, as a share of a.
func worseBy(a, b float64, better string) float64 {
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// verdict classifies B against A for one metric. worse is how far B's
// median is on the wrong side of A's, as a share of A's; spread is the
// run-to-run spread of the metric on this workload. A spread wider than
// the bound cannot resolve a move of the bound's size either way, and a
// move counts as an improvement only when it would have counted as a
// regression in the other direction.
func verdict(worse, spread, bound float64) string {
	switch {
	case spread > bound:
		return "unresolved"
	case worse > bound:
		return "regressed"
	case -worse > bound:
		return "improved"
	}
	return "unchanged"
}

func runCompare(root, argA, argB string, w io.Writer) error {
	man, err := loadManifest(root)
	if err != nil {
		return err
	}
	runsA, err := loadRuns(argA, man.RunSeconds)
	if err != nil {
		return err
	}
	runsB, err := loadRuns(argB, man.RunSeconds)
	if err != nil {
		return err
	}
	noise := loadNoise(root)
	a, b := collect(runsA, w), collect(runsB, w)
	bad := 0
	for _, wl := range man.Workloads {
		if a.values[wl.Name] == nil && b.values[wl.Name] == nil {
			continue // a comparison of the other workloads
		}
		if a.values[wl.Name] == nil || b.values[wl.Name] == nil {
			return fmt.Errorf("%s: only one side ran it", wl.Name)
		}
		fmt.Fprintf(w, "== %s\n", wl.Name)
		fmt.Fprintf(w, "  %-22s %-34s %-34s %-22s %7s %7s  %s\n", "metric", "A median [q1, q3] (n)", "B median [q1, q3] (n)", "B/A (base A)", "spread", "bound", "verdict")
		for _, mm := range man.EndToEnd {
			if !slices.Contains(native[wl.Name], mm.Name) {
				continue
			}
			seedsA, seedsB := a.values[wl.Name][mm.Name], b.values[wl.Name][mm.Name]
			va, vb := pooledValues(seedsA), pooledValues(seedsB)
			if len(va) == 0 || len(vb) == 0 {
				return fmt.Errorf("%s: %s is missing on one side", wl.Name, mm.Name)
			}
			a1, a2, a3 := quartiles(va)
			b1, b2, b3 := quartiles(vb)
			// The spread is A's own when A has enough runs to have
			// quartiles worth the name, and never less than what the noise
			// record measured for this metric on the seed commit.
			spread, bound := 0.0, mm.Bound
			if len(va) >= 4 && a2 != 0 {
				spread = (a3 - a1) / a2
			}
			if rec, ok := noise[wl.Name][mm.Name]; ok {
				spread = max(spread, rec.Spread)
			}
			worse := worseBy(a2, b2, mm.Better)
			if countMetrics[mm.Name] {
				// A count repeats exactly for one seed, so it is compared
				// seed by seed against countBound and has no spread; sides
				// that ran different seeds cannot be compared that closely.
				spread, bound, worse = 0, countBound, math.Inf(-1)
				for seed, xs := range seedsA {
					if len(seedsB[seed]) == 0 || len(seedsA) != len(seedsB) {
						spread = math.Inf(1) // unresolved; printed as "seeds"
						break
					}
					worse = max(worse, worseBy(median(xs), median(seedsB[seed]), mm.Better))
				}
			}
			v := verdict(worse, spread, bound)
			if v == "regressed" {
				bad++
			}
			spreadText := fmt.Sprintf("%6.1f%%", spread*100)
			if math.IsInf(spread, 1) {
				spreadText = "  seeds"
			}
			fmt.Fprintf(w, "  %-22s %-34s %-34s %-22s %s %6.1f%%  %s\n", mm.Name,
				fmt.Sprintf("%.5g [%.5g, %.5g] (%d)", a2, a1, a3, len(va)),
				fmt.Sprintf("%.5g [%.5g, %.5g] (%d)", b2, b1, b3, len(vb)),
				fmt.Sprintf("%.3f (%.5g %s)", b2/a2, a2, mm.Unit), spreadText, bound*100, v)
		}
		fa, na, fb, nb := a.failed[wl.Name], a.attempted[wl.Name], b.failed[wl.Name], b.attempted[wl.Name]
		fmt.Fprintf(w, "  %-22s A %d of %d, B %d of %d\n", "failed operations", fa, na, fb, nb)
		// fail_share has no bound: any rise is a regression.
		if float64(fb)/float64(nb) > float64(fa)/float64(na) {
			fmt.Fprintf(w, "  fail_share rose: regressed\n")
			bad++
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d regression(s)", bad)
	}
	return nil
}
