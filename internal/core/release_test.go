package core

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/grid"
	"repro/internal/interp"
)

// TestReleasedBackingsRetrieveFresh: a retrieval that takes the backings
// of a released result — its values NaN and its indices garbage when it
// was released, as a used tile's are stale — is, at every step of a
// refinement chain, bit for bit the retrieval of the same plan into fresh
// memory, at both scalar widths. The released result is one plane short
// of full fidelity, so that it holds indices to hand on.
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
		for i := range used.idx {
			used.idx[i] = int32(rng.Uint32())
		}
		oldVals, oldIdx := &vals[0], &used.idx[0]
		used.Release()

		res, err := a.Retrieve(plans[0])
		if err != nil {
			t.Fatal(err)
		}
		got := DataOf[T](res)
		recycled = recycled || &got[0] == oldVals && &res.idx[0] == oldIdx
		// A recycled backing is of the size class of what it holds, so
		// a result retains less than twice its length.
		if c, n := cap(got), len(got); bits.Len(uint(c)) != bits.Len(uint(n)) {
			t.Errorf("round %d: values of length %d on a backing of %d", round, n, c)
		}
		if c, n := cap(res.idx), len(res.idx); bits.Len(uint(c)) != bits.Len(uint(n)) {
			t.Errorf("round %d: indices of length %d on a backing of %d", round, n, c)
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
		if res.idx != nil || res.trunc != nil {
			t.Errorf("round %d: a result refined to full fidelity still holds its indices", round)
		}
	}
	if !recycled && !raceEnabled {
		t.Error("no retrieval took the backings of the result released before it")
	}
}

// TestMergePlanesAllocatesNothing pins a raise's merge at zero
// allocations: the planes of a real refinement of a 32³ tile's finest
// level are merged again and again. One shard (GOMAXPROCS 1) keeps the
// helper fan-out, whose cost is parallelChunks', out of the count.
func TestMergePlanesAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	g, maxAbs := pureField[float64](grid.Shape{32, 32, 32}, 3)
	blob, err := Compress(g, Options{ErrorBound: 1e-9 * maxAbs})
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewArchive(blob)
	if err != nil {
		t.Fatal(err)
	}
	if a.h.prog < 1 {
		t.Fatal("fixture has no progressive level")
	}
	plan := a.fullPlan()
	plan.Keep[0] = 2
	res, err := a.Retrieve(plan)
	if err != nil {
		t.Fatal(err)
	}
	const level = 1 // the finest, seven eighths of the values
	have, want := res.plan.Keep[level-1], a.h.metaOf(level).usedPlanes
	got := fetchLevel(t, res, level, want)
	allocs := testing.AllocsPerRun(20, func() {
		res.plan.Keep[level-1] = have
		res.mergePlanes(level, want, got)
	})
	if allocs != 0 {
		t.Errorf("merging %d planes of %d values allocates %.1f objects", want-have, a.h.metaOf(level).count, allocs)
	}
}

// TestFullFidelityPathsAgree is a differential property test of the ways a
// result reaches full fidelity: Retrieve of the full plan, RefineAll from
// the minimal plan, a fresh RetrieveAll, and a RetrieveAll that takes the
// backings of a released result whose values were NaN. Over random small
// shapes of rank 1 to 4 with odd extents, at both widths and with both
// predictors, with outliers planted, all four are bit for bit equal, and
// equal to refRebuild of the full indices; and none of them holds an index
// backing, since nothing is left to refine.
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
			t.Run("float64", func(t *testing.T) { fullPathsAgree[float64](t, shape, kind, seed) })
			t.Run("float32", func(t *testing.T) { fullPathsAgree[float32](t, shape, kind, seed) })
		})
	}
}

func fullPathsAgree[T grid.Scalar](t *testing.T, shape grid.Shape, kind interp.Kind, seed int64) {
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

	refined := retrieve(a.minimalPlan())
	if refined.idx == nil {
		t.Fatal("a retrieval of the minimal plan holds no indices")
	}
	if err := refined.RefineAll(); err != nil {
		t.Fatal(err)
	}
	fresh := retrieve(a.fullPlan())
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
	want := refRebuild[T](a, planIndices(t, a, a.fullPlan()))
	paths := []struct {
		name string
		r    *Result
	}{
		{"Retrieve(full plan)", fresh},
		{"RefineAll from the minimal plan", refined},
		{"RetrieveAll", all},
		{"RetrieveAll into released backings", recycled},
	}
	for _, p := range paths {
		if n := bitDiffs(DataOf[T](p.r), want); n != 0 {
			t.Errorf("%s: %d of %d values differ in bits from refRebuild", p.name, n, len(want))
		}
		if p.r.idx != nil || p.r.trunc != nil {
			t.Errorf("%s: a full-fidelity result holds an index backing", p.name)
		}
		if got := p.r.LoadedBytes(); got != a.TotalSize() {
			t.Errorf("%s: loaded %d of the archive's %d bytes", p.name, got, a.TotalSize())
		}
		if !slices.Equal(p.r.plan.Keep, a.fullPlan().Keep) {
			t.Errorf("%s: plan %v, want the full plan %v", p.name, p.r.plan.Keep, a.fullPlan().Keep)
		}
	}
}
