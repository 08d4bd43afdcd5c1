package core

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/grid"
	"repro/internal/interp"
)

// archiveForProps builds one shared archive for the property tests.
func archiveForProps(t *testing.T) (*Archive, *grid.Grid[float64], float64) {
	t.Helper()
	g := smoothField(grid.Shape{36, 32, 28}, 99)
	eb := 1e-8
	blob, err := Compress(g, Options{ErrorBound: eb, Interpolation: interp.Cubic,
		ProgressiveThreshold: 256})
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewArchive(blob)
	if err != nil {
		t.Fatal(err)
	}
	return a, g, eb
}

// TestPlanErrorBoundProperty: for ANY bound factor, the produced plan's
// guaranteed error never exceeds the request, and the actual reconstruction
// error never exceeds the guarantee.
func TestPlanErrorBoundProperty(t *testing.T) {
	a, g, eb := archiveForProps(t)
	f := func(seed uint32) bool {
		// Map the seed to a bound factor in [1, 2^20).
		factor := math.Exp(float64(seed%1000) / 1000 * math.Log(1<<20))
		bound := eb * factor
		plan, err := a.PlanErrorBoundMode(bound)
		if err != nil {
			return false
		}
		if a.PlanErrorBound(plan) > bound {
			t.Logf("factor %v: plan bound %v > request %v", factor, a.PlanErrorBound(plan), bound)
			return false
		}
		res, err := a.Retrieve(plan)
		if err != nil {
			return false
		}
		got := maxAbsDiff(g.Data(), res.Data())
		if got > bound {
			t.Logf("factor %v: actual %v > request %v", factor, got, bound)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestPlanBitrateProperty: for ANY byte budget above the mandatory minimum,
// the plan fits the budget.
func TestPlanBitrateProperty(t *testing.T) {
	a, _, _ := archiveForProps(t)
	minimal := a.PlanBytes(a.minimalPlan())
	total := a.TotalSize()
	f := func(seed uint32) bool {
		budget := minimal + int64(seed)%(total-minimal+1)
		plan, err := a.PlanBitrateMode(budget)
		if err != nil {
			return false
		}
		return a.PlanBytes(plan) <= budget
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestPlanBitrateMonotoneError: larger budgets never produce worse
// guaranteed errors.
func TestPlanBitrateMonotoneError(t *testing.T) {
	a, _, _ := archiveForProps(t)
	total := a.TotalSize()
	prevErr := math.Inf(1)
	for _, frac := range []float64{0.1, 0.2, 0.35, 0.5, 0.7, 0.9, 1.0} {
		plan, err := a.PlanBitrateMode(int64(frac * float64(total)))
		if err != nil {
			t.Fatal(err)
		}
		e := a.PlanErrorBound(plan)
		if e > prevErr*(1+1e-12) {
			t.Errorf("budget %.0f%%: bound %g worse than smaller budget's %g", frac*100, e, prevErr)
		}
		prevErr = e
	}
}

// TestErrorBoundPlanIsByteMinimalAmongSweep: the DP plan should never load
// more than simple per-level greedy trimming for the same bound.
func TestErrorBoundPlanBeatsGreedy(t *testing.T) {
	a, _, eb := archiveForProps(t)
	for _, factor := range []float64{16, 256, 4096, 65536} {
		bound := eb * factor
		plan, err := a.PlanErrorBoundMode(bound)
		if err != nil {
			t.Fatal(err)
		}
		greedy := a.greedyPlan(bound)
		if a.PlanBytes(plan) > a.PlanBytes(greedy) {
			t.Errorf("factor %v: DP plan %d bytes > greedy %d",
				factor, a.PlanBytes(plan), a.PlanBytes(greedy))
		}
	}
}

// greedyPlan is a reference implementation: split the budget equally across
// progressive levels (PMGARD-style) and trim planes per level.
func (a *Archive) greedyPlan(bound float64) Plan {
	plan := a.fullPlan()
	if bound <= a.h.eb || a.h.prog == 0 {
		return plan
	}
	share := (bound - a.h.eb) / float64(a.h.prog)
	for l := 1; l <= a.h.prog; l++ {
		m := a.h.metaOf(l)
		keep := m.usedPlanes
		for d := m.usedPlanes; d >= 0; d-- {
			if a.truncErr(l, m.usedPlanes-d) <= share {
				keep = m.usedPlanes - d
				break
			}
		}
		plan.Keep[l-1] = keep
	}
	return plan
}

func TestFourDimensionalProgressive(t *testing.T) {
	g := smoothField(grid.Shape{10, 9, 8, 7}, 44)
	eb := 1e-6
	blob, err := Compress(g, Options{ErrorBound: eb, Interpolation: interp.Cubic,
		ProgressiveThreshold: 128})
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewArchive(blob)
	if err != nil {
		t.Fatal(err)
	}
	for _, factor := range []float64{1, 64, 4096} {
		res, err := a.RetrieveErrorBound(eb * factor)
		if err != nil {
			t.Fatal(err)
		}
		if got := maxAbsDiff(g.Data(), res.Data()); got > eb*factor {
			t.Errorf("4D factor %v: error %g", factor, got)
		}
	}
}

func TestOneDimensionalProgressive(t *testing.T) {
	g := smoothField(grid.Shape{5000}, 45)
	eb := 1e-7
	blob, err := Compress(g, Options{ErrorBound: eb, Interpolation: interp.Linear,
		ProgressiveThreshold: 128})
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewArchive(blob)
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.RetrieveErrorBound(eb * 1024)
	if err != nil {
		t.Fatal(err)
	}
	if got := maxAbsDiff(g.Data(), res.Data()); got > eb*1024 {
		t.Errorf("1D error %g", got)
	}
	if res.LoadedBytes() >= a.TotalSize() {
		t.Error("1D coarse retrieval loaded everything")
	}
}

func TestRefineBitrateNeverUnloads(t *testing.T) {
	a, _, eb := archiveForProps(t)
	res, err := a.RetrieveErrorBound(eb * 64)
	if err != nil {
		t.Fatal(err)
	}
	loaded := res.LoadedBytes()
	// A budget below what is already loaded must be a no-op, not a failure.
	if err := res.RefineBitrate(float64(loaded) * 8 / float64(len(res.Data())) / 2); err != nil {
		t.Fatal(err)
	}
	if res.LoadedBytes() != loaded {
		t.Errorf("refine with tiny budget changed loaded bytes: %d -> %d", loaded, res.LoadedBytes())
	}
}

func TestPlanAccessors(t *testing.T) {
	a, _, _ := archiveForProps(t)
	res, err := a.RetrieveAll()
	if err != nil {
		t.Fatal(err)
	}
	p := res.plan.clone()
	if len(p.Keep) != a.NumLevels() {
		t.Errorf("plan has %d levels", len(p.Keep))
	}
	// Mutating the copy must not affect the result.
	p.Keep[0] = -999
	if res.plan.Keep[0] == -999 {
		t.Error("clone shares the plan's Keep")
	}
	if res.Bitrate() <= 0 {
		t.Error("bitrate not positive")
	}
	if a.h.prog < 1 || a.h.prog > a.NumLevels() {
		t.Errorf("Lp=%d of L=%d", a.h.prog, a.NumLevels())
	}
}
