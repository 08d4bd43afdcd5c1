package core

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"repro/internal/grid"
	"repro/internal/interp"
)

// TestReleasedBackingsRetrieveFresh: a retrieval that takes the backings
// of a released result — its values NaN and its planes garbage when it
// was released, as a used tile's are stale — is, at every step of a
// refinement chain, bit for bit the retrieval of the same plan into fresh
// memory, at both scalar widths. The released result is one plane short
// of full fidelity, so that it holds planes to hand on.
func TestReleasedBackingsRetrieveFresh(t *testing.T) {
	t.Run("float64", func(t *testing.T) { releasedIsFresh[float64](t, 1e-9) })
	t.Run("float32", func(t *testing.T) { releasedIsFresh[float32](t, 1e-5) })
}

func releasedIsFresh[T grid.Scalar](t *testing.T, relEB float64) {
	g, maxAbs := pureField[T](grid.Shape{32, 32, 32}, 5)
	eb := relEB * maxAbs
	blob, err := Compress(g, Options{ErrorBound: eb, ProgressiveThreshold: 16})
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewArchive(blob)
	if err != nil {
		t.Fatal(err)
	}
	if a.h.prog < 2 {
		t.Fatalf("fixture has %d progressive levels; the test needs 2", a.h.prog)
	}
	// A chain of plans from few planes to all of them, and what each
	// retrieves into fresh memory: no result has been released yet.
	var plans []Plan
	for _, f := range []float64{1 << 20, 1 << 12, 1 << 4} {
		p, err := a.PlanErrorBoundMode(f * eb)
		if err != nil {
			t.Fatal(err)
		}
		plans = append(plans, p)
	}
	plans = append(plans, a.fullPlan())
	want := make([][]T, len(plans))
	for i, p := range plans {
		r, err := a.Retrieve(p)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = slices.Clone(DataOf[T](r))
	}

	short := a.fullPlan()
	short.Keep[0]--
	rng := rand.New(rand.NewSource(9))
	recycled := false
	for round := 0; round < 4; round++ {
		used, err := a.Retrieve(short)
		if err != nil {
			t.Fatal(err)
		}
		vals := DataOf[T](used)
		for i := range vals {
			vals[i] = T(math.NaN())
		}
		rng.Read(used.planes)
		oldVals, oldPlanes := &vals[0], &used.planes[0]
		used.Release()

		res, err := a.Retrieve(plans[0])
		if err != nil {
			t.Fatal(err)
		}
		got := DataOf[T](res)
		recycled = recycled || &got[0] == oldVals && &res.planes[0] == oldPlanes
		// A recycled backing is of the size class of what it holds, so
		// a result retains less than twice its length.
		if c, n := cap(got), len(got); bits.Len(uint(c)) != bits.Len(uint(n)) {
			t.Errorf("round %d: values of length %d on a backing of %d", round, n, c)
		}
		if c, n := cap(res.planes), len(res.planes); bits.Len(uint(c)) != bits.Len(uint(n)) {
			t.Errorf("round %d: planes of length %d on a backing of %d", round, n, c)
		}
		for i := range plans {
			if i > 0 {
				if err := res.RefineTo(plans[i]); err != nil {
					t.Fatal(err)
				}
			}
			if n := bitDiffs(DataOf[T](res), want[i]); n != 0 {
				t.Fatalf("round %d plan %v: %d of %d values differ in bits from a fresh retrieval",
					round, plans[i].Keep, n, len(want[i]))
			}
		}
		if res.planes != nil {
			t.Errorf("round %d: a result refined to full fidelity still holds its planes", round)
		}
	}
	if !recycled && !raceEnabled {
		t.Error("no retrieval took the backings of the result released before it")
	}
}

// TestRefineAllocatesNoBacking: a refinement decodes into the plane
// backing its result holds and merges in pooled block scratch, so a step
// of a chain below full fidelity allocates nothing that grows with the
// field — under 1% of the answer's bytes, with the collector off while it
// counts. One shard (GOMAXPROCS 1) keeps the helper fan-out's cost out of
// the count.
func TestRefineAllocatesNoBacking(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	g, maxAbs := pureField[float64](grid.Shape{64, 64, 64}, 3)
	eb := 1e-9 * maxAbs
	blob, err := Compress(g, Options{ErrorBound: eb})
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewArchive(blob)
	if err != nil {
		t.Fatal(err)
	}
	var plans [2]Plan
	for i, f := range []float64{1 << 20, 1 << 10} {
		if plans[i], err = a.PlanErrorBoundMode(f * eb); err != nil {
			t.Fatal(err)
		}
	}
	if a.PlanBytes(plans[0]) == a.PlanBytes(plans[1]) || a.PlanBytes(plans[1]) == a.TotalSize() {
		t.Fatalf("plans %v, %v: the test needs a step that loads planes and stops short of full fidelity", plans[0].Keep, plans[1].Keep)
	}
	step := func() float64 {
		res, err := a.Retrieve(plans[0])
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := res.RefineTo(plans[1]); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc - before.TotalAlloc)
	}
	step() // fills the pools
	answer := float64(8 * g.Len())
	if got := step(); got > 0.01*answer {
		t.Errorf("a refinement step allocates %.0f B, %.3f× its answer's %.0f", got, got/answer, answer)
	}
}

// TestFailedRefineLeavesResult: a refinement whose fan-out hits a corrupt
// DEFLATE block, while the other planes it loads decode fine into their
// slots of the result's backing, returns an error and leaves the result
// what Retrieve of its old plan returns — values bit for bit, guarantee,
// loaded bytes and plan — and a later refinement to a plan that avoids the
// corrupt plane is Retrieve of that plan, at both widths.
func TestFailedRefineLeavesResult(t *testing.T) {
	t.Run("float64", func(t *testing.T) { failedRefineLeaves[float64](t, 1e-9) })
	t.Run("float32", func(t *testing.T) { failedRefineLeaves[float32](t, 1e-5) })
}

func failedRefineLeaves[T grid.Scalar](t *testing.T, relEB float64) {
	g, maxAbs := pureField[T](grid.Shape{32, 32, 32}, 7)
	blob, err := Compress(g, Options{ErrorBound: relEB * maxAbs, ProgressiveThreshold: 16})
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewArchive(blob)
	if err != nil {
		t.Fatal(err)
	}
	// A DEFLATE plane of the finest level with two planes above it, both
	// left unloaded by the old plan, so the failing raise decodes planes
	// before and after it.
	m, bad := a.h.metaOf(1), -1
	for p := 2; p < m.usedPlanes-1 && bad < 0; p++ {
		if blob[a.h.blockOff[0][p]] == 1 {
			bad = p
		}
	}
	if bad < 0 {
		t.Fatalf("level 1 has no DEFLATE plane below its second of %d", m.usedPlanes)
	}
	corrupt := slices.Clone(blob)
	corrupt[a.h.blockOff[0][bad]+1] = 0xff // DEFLATE block type 3: reserved
	ca, err := NewArchive(corrupt)
	if err != nil {
		t.Fatal(err)
	}
	retrieve := func(a *Archive, p Plan) *Result {
		t.Helper()
		r, err := a.Retrieve(p)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	same := func(what string, got, want *Result) {
		t.Helper()
		if n := bitDiffs(DataOf[T](got), DataOf[T](want)); n != 0 {
			t.Errorf("%s: %d values differ in bits from Retrieve of the plan", what, n)
		}
		if got.GuaranteedError() != want.GuaranteedError() || got.LoadedBytes() != want.LoadedBytes() || !slices.Equal(got.plan.Keep, want.plan.Keep) {
			t.Errorf("%s: guarantee %g, %d bytes, plan %v; Retrieve of the plan: %g, %d bytes, plan %v", what,
				got.GuaranteedError(), got.LoadedBytes(), got.plan.Keep, want.GuaranteedError(), want.LoadedBytes(), want.plan.Keep)
		}
	}
	old := a.fullPlan()
	old.Keep[0] = bad - 2
	res := retrieve(ca, old)
	if err := res.RefineAll(); err == nil {
		t.Fatalf("a refinement through corrupt plane %d of level 1 succeeded", bad)
	}
	same("after the failed refinement", res, retrieve(a, old))
	avoid := a.fullPlan()
	avoid.Keep[0] = bad
	if err := res.RefineTo(avoid); err != nil {
		t.Fatal(err)
	}
	same("refined around the corrupt plane", res, retrieve(a, avoid))
}

// TestFullFidelityPathsAgree is a differential property test of the one
// rebuild path, over every way a result reaches its plan. Over random
// small shapes of rank 1 to 4 with odd extents, at both widths and with
// both predictors, with outliers planted, each result is bit for bit
// refRebuild of its plan's indices, loaded exactly its plan's bytes, and
// holds planes exactly when it is below full fidelity. At full fidelity
// four routes meet: Retrieve of the full plan, RefineAll from the minimal
// plan, a fresh RetrieveAll, and a RetrieveAll that takes the backings of
// a released result whose values were NaN. Below it, random plans are
// retrieved fresh and reached by random refinement chains, whose plans
// may ask for fewer planes than a result holds (RefineTo clamps).
func TestFullFidelityPathsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	maxHalf := [5]int{0, 400, 40, 12, 6} // extents up to 2·maxHalf+9, by rank
	for trial := 0; trial < 16; trial++ {
		rank := 1 + trial%4
		shape := make(grid.Shape, rank)
		for d := range shape {
			shape[d] = 2*rng.Intn(maxHalf[rank]) + 9
		}
		kind := [2]interp.Kind{interp.Linear, interp.Cubic}[trial/4%2]
		seed := rng.Int63()
		t.Run(fmt.Sprintf("%v/%v", shape, kind), func(t *testing.T) {
			t.Run("float64", func(t *testing.T) { rebuildPathsAgree[float64](t, shape, kind, seed) })
			t.Run("float32", func(t *testing.T) { rebuildPathsAgree[float32](t, shape, kind, seed) })
		})
	}
}

func rebuildPathsAgree[T grid.Scalar](t *testing.T, shape grid.Shape, kind interp.Kind, seed int64) {
	g, maxAbs := pureField[T](shape, seed)
	src := g.Data()
	rng := rand.New(rand.NewSource(seed))
	for range 3 {
		src[rng.Intn(len(src))] += 1e6
	}
	blob, err := Compress(g, Options{ErrorBound: 1e-6 * maxAbs, Interpolation: kind, ProgressiveThreshold: 16})
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
	if outliers == 0 || a.h.prog == 0 {
		t.Fatalf("fixture has %d outliers and %d progressive levels; the test needs both", outliers, a.h.prog)
	}
	retrieve := func(p Plan) *Result {
		t.Helper()
		r, err := a.Retrieve(p)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	full := a.fullPlan()
	check := func(name string, r *Result, p Plan) {
		t.Helper()
		if n := bitDiffs(DataOf[T](r), refRebuild[T](a, planIndices(t, a, p))); n != 0 {
			t.Errorf("%s: %d of %d values differ in bits from refRebuild", name, n, r.NumElements())
		}
		if got, want := r.LoadedBytes(), a.PlanBytes(p); got != want {
			t.Errorf("%s: loaded %d bytes, the plan %d", name, got, want)
		}
		if !slices.Equal(r.plan.Keep, p.Keep) {
			t.Errorf("%s: plan %v, want %v", name, r.plan.Keep, p.Keep)
		}
		if atFull := slices.Equal(p.Keep, full.Keep); atFull != (r.planes == nil) {
			t.Errorf("%s: at full fidelity %v, holds %d bytes of planes", name, atFull, len(r.planes))
		}
	}

	refined := retrieve(a.minimalPlan())
	if refined.planes == nil {
		t.Fatal("a retrieval of the minimal plan holds no planes")
	}
	if err := refined.RefineAll(); err != nil {
		t.Fatal(err)
	}
	fresh := retrieve(full)
	spent := retrieve(a.minimalPlan())
	vals := DataOf[T](spent)
	for i := range vals {
		vals[i] = T(math.NaN())
	}
	spent.Release()
	recycled, err := a.RetrieveAll()
	if err != nil {
		t.Fatal(err)
	}
	all, err := a.RetrieveAll()
	if err != nil {
		t.Fatal(err)
	}
	check("Retrieve(full plan)", fresh, full)
	check("RefineAll from the minimal plan", refined, full)
	check("RetrieveAll", all, full)
	check("RetrieveAll into released backings", recycled, full)

	randomPlan := func() Plan {
		p := a.minimalPlan()
		for l := 1; l <= a.h.prog; l++ {
			p.Keep[l-1] = rng.Intn(a.h.metaOf(l).usedPlanes + 1)
		}
		return p
	}
	for chain := range 4 {
		p := randomPlan()
		r := retrieve(p)
		check(fmt.Sprintf("chain %d: Retrieve(%v)", chain, p.Keep), r, p)
		for step := range 3 {
			next := randomPlan()
			if err := r.RefineTo(next); err != nil {
				t.Fatal(err)
			}
			for l := range p.Keep {
				p.Keep[l] = max(p.Keep[l], next.Keep[l])
			}
			check(fmt.Sprintf("chain %d step %d: RefineTo(%v)", chain, step, next.Keep), r, p)
		}
	}
}
