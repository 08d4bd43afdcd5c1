package main

import (
	"math"
	"sort"
	"time"
)

// timing summarises one set of latency samples the way every timing in
// the result file is reported: a median plus the highest percentile that
// still has at least ten samples beyond it, with the sample count.
type timing struct {
	N       int     `json:"n"`
	P25     float64 `json:"p25_ms"`
	P50     float64 `json:"p50_ms"`
	TailPct float64 `json:"tail_pct"`
	Tail    float64 `json:"tail_ms"`
}

// tailCandidates are the percentiles a tail may be reported at, highest
// first.
var tailCandidates = []float64{99.9, 99, 95, 90, 75}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// tailPercentile picks the highest candidate percentile with at least
// minBeyond of n samples beyond it; with too few samples for any of them
// the median is all that can be said, and 50 is returned.
func tailPercentile(n int) float64 {
	for _, p := range tailCandidates {
		// A small epsilon keeps 1000 samples at p99 (exactly ten beyond)
		// from being lost to floating-point rounding of 1-p/100.
		if float64(n)*(100-p)/100+1e-9 >= minBeyond {
			return p
		}
	}
	return 50
}

// quantile returns the q-quantile (0..1) of ascending xs, interpolating
// linearly between closest ranks. Empty input yields NaN.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 { return quantile(sorted(xs), 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// summarize reports millisecond samples as a timing.
func summarize(ms []float64) timing { return summarizeAt(ms, 100) }

// summarizeAt is summarize with the tail percentile capped: the latency
// metric of a workload is taken at one fixed percentile, so that a few
// samples more or fewer cannot move it from one percentile to another.
func summarizeAt(ms []float64, maxPct float64) timing {
	s := sorted(ms)
	p := min(maxPct, tailPercentile(len(s)))
	return timing{N: len(s), P25: quantile(s, 0.25), P50: quantile(s, 0.5), TailPct: p, Tail: quantile(s, p/100)}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// durs collects durations and reports them in milliseconds.
type durs []float64

func (d *durs) add(x time.Duration) { *d = append(*d, ms(x)) }
