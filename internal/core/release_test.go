package core

import (
	"math"
	"math/bits"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/grid"
)

// TestReleasedBackingsRetrieveFresh: a retrieval that takes the backings
// of a released result — its values NaN and its indices garbage when it
// was released, as a used tile's are stale — is, at every step of a
// refinement chain, bit for bit the retrieval of the same plan into fresh
// memory, at both scalar widths.
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

	rng := rand.New(rand.NewSource(9))
	recycled := false
	for round := 0; round < 4; round++ {
		used, err := a.RetrieveAll()
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
		// A recycled backing is of the size class of what it holds, so
		// a result retains less than twice its length.
		if c, n := cap(got), len(got); bits.Len(uint(c)) != bits.Len(uint(n)) {
			t.Errorf("round %d: values of length %d on a backing of %d", round, n, c)
		}
		if c, n := cap(res.idx), len(res.idx); bits.Len(uint(c)) != bits.Len(uint(n)) {
			t.Errorf("round %d: indices of length %d on a backing of %d", round, n, c)
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
	got := make([]byte, res.raiseBytes(level, want))
	if err := res.fetchPlanes(level, want, got); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		res.plan.Keep[level-1] = have
		res.mergePlanes(level, want, got)
	})
	if allocs != 0 {
		t.Errorf("merging %d planes of %d values allocates %.1f objects", want-have, a.h.metaOf(level).count, allocs)
	}
}
