package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/datagen"
	"repro/internal/grid"
	"repro/internal/interp"
)

// planError is the actual L∞ error of retrieving plan p from a, against
// the input widened from the width the archive holds.
func planError(t *testing.T, a *Archive, p Plan, src []float64) float64 {
	t.Helper()
	res, err := a.Retrieve(p)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Release()
	return maxAbsDiff(src, res.Data())
}

// boundCase builds a random field of the given shape: smooth modes, noise
// at a random fraction of the range, and a few planted outliers far outside
// it, which escape the quantizer. offset lifts the whole field by 50 to
// 50 000 times the modes' amplitude, so that a float32 archive's magnitude
// dwarfs its range and rounding is a large part of a truncated plan's error.
func boundCase(r *rand.Rand, shape grid.Shape, offset bool) []float64 {
	vals := smoothField(shape, r.Int63()).Data()
	noise := math.Pow(10, -1-3*r.Float64())
	for i := range vals {
		vals[i] += noise * r.NormFloat64()
	}
	for range 1 + len(vals)/500 {
		vals[r.Intn(len(vals))] = 50 * (r.Float64() - 0.5)
	}
	if offset {
		off := 50 * math.Pow(10, 3*r.Float64())
		for i := range vals {
			vals[i] += off
		}
	}
	return vals
}

// TestPlanErrorBoundHolds is the planner's contract at both widths: every
// plan answers within its PlanErrorBound. The archives are random 1-D to
// 4-D fields under both predictors, at relative bounds from 1e-3 to 3e-7,
// with thresholds that make one, two or three levels progressive: for each
// rank, progressive level count and width, one field about zero and one
// far from it (see boundCase). Every
// plan over one or two progressive levels is decoded; over three, a random
// sample. The plans both planners choose are checked too, each against
// its own bound and, in error-bound mode, against the request.
func TestPlanErrorBoundHolds(t *testing.T) {
	r := rand.New(rand.NewSource(46))
	shapes := []grid.Shape{{3000}, {64, 47}, {19, 17, 14}, {11, 9, 8, 7}}
	for _, shape := range shapes {
		for prog := 1; prog <= 3; prog++ {
			for c := range 4 {
				f32 := c%2 == 1
				kind := interp.Kind((len(shape) + prog) % 2) // both predictors at each width and rank
				vals := boundCase(r, shape, c >= 2)
				if f32 {
					vals = grid.WidenSlice(grid.NarrowSlice(vals))
				}
				g, _ := grid.FromSlice(vals, shape)
				eb := g.ValueRange() * math.Pow(10, -3-3.5*r.Float64())
				dec, _ := interp.NewDecomposition(shape)
				opt := Options{ErrorBound: eb, Interpolation: kind, ProgressiveThreshold: dec.LevelCount(prog)}
				var blob []byte
				var err error
				if f32 {
					blob, err = Compress(grid.Narrow(g), opt)
				} else {
					blob, err = Compress(g, opt)
				}
				if err != nil {
					t.Fatal(err)
				}
				a, err := NewArchive(blob)
				if err != nil {
					t.Fatal(err)
				}
				if a.h.prog != prog {
					t.Fatalf("%v: threshold %d gave %d progressive levels, want %d", shape, opt.ProgressiveThreshold, a.h.prog, prog)
				}
				checked := 0
				check := func(p Plan, what string) {
					got, bound := planError(t, a, p, vals), a.PlanErrorBound(p)
					if !(got <= bound) {
						t.Errorf("%v %v f32=%v eb %.3g: %s plan %v answers with error %.6g, past its bound %.6g",
							shape, kind, f32, eb, what, p.Keep, got, bound)
					}
					checked++
				}
				plan := a.fullPlan()
				var walk func(l int)
				walk = func(l int) {
					if l == 0 {
						check(plan, "enumerated")
						return
					}
					for k := 0; k <= a.h.metaOf(l).usedPlanes; k++ {
						plan.Keep[l-1] = k
						walk(l - 1)
					}
				}
				if prog <= 2 {
					walk(prog)
				} else {
					for range 48 {
						for l := 1; l <= prog; l++ {
							plan.Keep[l-1] = r.Intn(a.h.metaOf(l).usedPlanes + 1)
						}
						check(plan, "sampled")
					}
				}
				for _, m := range []float64{1, 1.5, 4, 16, 64, 256, 4096, 1 << 20} {
					p, err := a.PlanErrorBoundMode(m * eb)
					if err != nil {
						t.Fatal(err)
					}
					if b := a.PlanErrorBound(p); b > m*eb {
						t.Errorf("%v: PlanErrorBoundMode(%g·eb) chose %v, whose bound is %.6g", shape, m, p.Keep, b)
					}
					check(p, "error-bound mode")
				}
				for _, frac := range []float64{0, 0.05, 0.2, 0.5, 0.9} {
					p, err := a.PlanBitrateMode(int64(frac * float64(a.TotalSize())))
					if err != nil {
						t.Fatal(err)
					}
					check(p, "bitrate mode")
				}
				if testing.Verbose() {
					t.Logf("%v %v f32=%v prog %d: %d plans", shape, kind, f32, prog, checked)
				}
			}
		}
	}
}

// TestPaperWeightsUnderstateError keeps the paper's Eq. (5) on record as
// what it is: a per-level weight of p^(l-1) counts one prediction per level,
// but a level is predicted dimension by dimension, and truncation loss
// compounds across those passes. Planned with Eq. (5)'s weights instead of
// boundWeights, a fixed 32³ tile answers past the bound it was asked for at
// every serving rung (ROADMAP finding 1 measured up to 2.06× on crops of
// 192³ fields). float64, so that no rounding slack enters either plan.
func TestPaperWeightsUnderstateError(t *testing.T) {
	g, err := datagen.GenerateShape("Density", grid.Shape{32, 32, 32})
	if err != nil {
		t.Fatal(err)
	}
	eb := 1e-6 * g.ValueRange()
	blob, err := Compress(g, Options{ErrorBound: eb, Interpolation: interp.Cubic})
	if err != nil {
		t.Fatal(err)
	}
	paper, err := NewArchive(blob)
	if err != nil {
		t.Fatal(err)
	}
	p := paper.h.kind.Amplification()
	for l := range paper.weight {
		paper.weight[l] = math.Pow(p, float64(l))
	}
	for _, m := range []float64{4, 16, 64, 256} {
		plan, err := paper.PlanErrorBoundMode(m * eb)
		if err != nil {
			t.Fatal(err)
		}
		got := planError(t, paper, plan, g.Data())
		if got <= m*eb {
			t.Errorf("%g·eb: Eq. (5)'s plan %v answers within the request (%.3g ≤ %.3g)", m, plan.Keep, got, m*eb)
		}
		t.Logf("%g·eb: Eq. (5)'s plan %v answers at %.2f× the request", m, plan.Keep, got/(m*eb))
	}
}
