package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/grid"
	"repro/internal/interp"
)

// bitDiffs counts the positions at which two reconstructions differ in
// bits (so -0.0 ≠ 0.0 and a NaN equals only its own payload).
func bitDiffs[T grid.Scalar](a, b []T) int {
	if len(a) != len(b) {
		return max(len(a), len(b))
	}
	n := 0
	switch x := any(a).(type) {
	case []float32:
		y := any(b).([]float32)
		for i := range x {
			if math.Float32bits(x[i]) != math.Float32bits(y[i]) {
				n++
			}
		}
	case []float64:
		y := any(b).([]float64)
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				n++
			}
		}
	}
	return n
}

// pureField is smoothField at width T, shifted so its values are of order
// one (which is what ties a float32 ulp to the error bound below).
func pureField[T grid.Scalar](shape grid.Shape, seed int64) (g *grid.Grid[T], maxAbs float64) {
	g = grid.MustNew[T](shape)
	data := g.Data()
	for i, v := range smoothField(shape, seed).Data() {
		data[i] = T(v + 1)
		maxAbs = max(maxAbs, math.Abs(float64(data[i])))
	}
	return g, maxAbs
}

// TestRefineIsPureFunctionOfPlan pins what makes a progressive result safe
// to cache, serve and refine in any order: after any monotone chain of
// refinements, by any of the four entry points, the values are bit for bit
// those of a fresh Retrieve of the plan the result reports — at both
// scalar widths, every rank, both predictors, with outliers in the archive
// — and within the bound that plan guarantees against the source.
func TestRefineIsPureFunctionOfPlan(t *testing.T) {
	// Outliers of both kinds the encoder knows. Float64: a spike far outside
	// the negabinary window, which takes its neighbours along.
	t.Run("float64", func(t *testing.T) { refineIsPure[float64](t, 1e-9, 1e12) })
	// Float32: a bound of 1.5 ulps of the largest value, which some
	// native-width reconstructions miss by a rounding error. (A spike that
	// large would put the float32 rounding slack of every truncated plan
	// above the field's range, and every refinement would jump to the full
	// plan.)
	t.Run("float32", func(t *testing.T) { refineIsPure[float32](t, 1.5/(1<<23), 0) })
}

func refineIsPure[T grid.Scalar](t *testing.T, relEB, spike float64) {
	shapes := []grid.Shape{{257}, {1000}, {65, 50}, {33, 20, 47}, {32, 32, 32}, {9, 10, 11, 12}}
	for si, shape := range shapes {
		for _, kind := range []interp.Kind{interp.Linear, interp.Cubic} {
			t.Run(fmt.Sprintf("%v/%v", shape, kind), func(t *testing.T) {
				g, maxAbs := pureField[T](shape, int64(100+si))
				src := g.Data()
				if spike != 0 {
					src[len(src)/3] = T(spike)
				}
				eb := relEB * maxAbs
				blob, err := Compress(g, Options{ErrorBound: eb, Interpolation: kind, ProgressiveThreshold: 16})
				if err != nil {
					t.Fatal(err)
				}
				a, err := NewArchive(blob)
				if err != nil {
					t.Fatal(err)
				}
				outliers := 0
				for l := 1; l <= a.h.levels; l++ {
					outliers += len(a.h.metaOf(l).outlierIdx)
				}
				if outliers == 0 || a.h.prog < 2 {
					t.Fatalf("fixture has %d outliers and %d progressive levels; the test needs both", outliers, a.h.prog)
				}

				rng := rand.New(rand.NewSource(int64(si)*2 + int64(kind)))
				bound := eb * math.Pow(2, 20+4*rng.Float64())
				res, err := a.RetrieveErrorBound(bound)
				if err != nil {
					t.Fatal(err)
				}
				check := func(step string) {
					t.Helper()
					fresh, err := a.Retrieve(res.plan.clone())
					if err != nil {
						t.Fatalf("%s: fresh retrieval of %v: %v", step, res.plan.clone().Keep, err)
					}
					if n := bitDiffs(DataOf[T](res), DataOf[T](fresh)); n != 0 {
						t.Fatalf("%s: plan %v: %d of %d values differ in bits from Retrieve(res.plan.clone())",
							step, res.plan.clone().Keep, n, len(src))
					}
					if res.LoadedBytes() != fresh.LoadedBytes() {
						t.Errorf("%s: loaded %d bytes, a fresh retrieval of the plan %d", step, res.LoadedBytes(), fresh.LoadedBytes())
					}
					worst := 0.0
					for i, v := range DataOf[T](res) {
						worst = max(worst, math.Abs(float64(v)-float64(src[i])))
					}
					if guar := res.GuaranteedError(); worst > guar*(1+1e-9) {
						t.Errorf("%s: plan %v: error %g exceeds the guaranteed %g", step, res.plan.clone().Keep, worst, guar)
					}
				}
				check("retrieve")
				for step := 0; step < 8; step++ {
					var name string
					switch op := rng.Intn(3); {
					case step == 7:
						name = "RefineAll"
						err = res.RefineAll()
					case op == 0:
						bound = max(eb, bound/math.Pow(2, 1+5*rng.Float64()))
						name = fmt.Sprintf("RefineErrorBound(%g)", bound)
						err = res.RefineErrorBound(bound)
						if guar := res.GuaranteedError(); err == nil && guar > bound {
							t.Errorf("step %d %s: guarantees only %g", step, name, guar)
						}
					case op == 1:
						rate := res.Bitrate() * (1 + rng.Float64())
						name = fmt.Sprintf("RefineBitrate(%g)", rate)
						err = res.RefineBitrate(rate)
					default:
						// Any plan at all: levels it would lower are clamped, so
						// the chain stays monotone whatever is drawn.
						plan, want := res.plan.clone(), res.plan.clone()
						for l := 1; l <= a.h.prog; l++ {
							plan.Keep[l-1] = rng.Intn(a.h.metaOf(l).usedPlanes + 1)
							want.Keep[l-1] = max(want.Keep[l-1], plan.Keep[l-1])
						}
						name = fmt.Sprintf("RefineTo(%v)", plan.Keep)
						err = res.RefineTo(plan)
						if got := res.plan.clone(); err == nil && !slices.Equal(got.Keep, want.Keep) {
							t.Errorf("step %d %s: holds %v, want %v", step, name, got.Keep, want.Keep)
						}
					}
					if err != nil {
						t.Fatalf("step %d %s: %v", step, name, err)
					}
					check(fmt.Sprintf("step %d %s", step, name))
				}
				if full := a.fullPlan(); !slices.Equal(res.plan.clone().Keep, full.Keep) {
					t.Errorf("RefineAll ended at %v, full plan is %v", res.plan.clone().Keep, full.Keep)
				}
			})
		}
	}
}
