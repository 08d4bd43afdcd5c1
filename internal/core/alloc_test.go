package core

import (
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/datagen"
	"repro/internal/grid"
)

// TestRetrieveAllocations pins what a retrieval allocates against the
// bytes of its answer, at both widths, with the collector off while it
// counts so that pooled scratch stays pooled. A full-fidelity retrieval
// allocates its values and no index backing: at most 1.15× the answer. A
// partial one also takes the int32 indices it refines from: at most 2.15×,
// which is what a float32 answer and its indices come to.
func TestRetrieveAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	field, err := datagen.GenerateShape("Density", grid.Shape{64, 64, 64})
	if err != nil {
		t.Fatal(err)
	}
	eb := 1e-5 * field.ValueRange()
	for _, scalar := range []ScalarType{Float64, Float32} {
		var blob []byte
		if scalar == Float32 {
			blob, err = Compress(grid.Narrow(field), Options{ErrorBound: eb})
		} else {
			blob, err = Compress(field, Options{ErrorBound: eb})
		}
		if err != nil {
			t.Fatal(err)
		}
		a, err := NewArchive(blob)
		if err != nil {
			t.Fatal(err)
		}
		partial, err := a.PlanErrorBoundMode(1e3 * eb)
		if err != nil {
			t.Fatal(err)
		}
		if a.PlanBytes(partial) == a.TotalSize() {
			t.Fatalf("%v: the plan at 1e3·eb loads every plane", scalar)
		}
		answer := float64(field.Len() * scalar.Bytes())
		for _, c := range []struct {
			name  string
			plan  Plan
			limit float64
		}{{"full", a.fullPlan(), 1.15}, {"partial", partial, 2.15}} {
			perCall := allocatedBytes(func() {
				if _, err := a.Retrieve(c.plan); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("%v %s: %.0f B a call, %.3f× the answer", scalar, c.name, perCall, perCall/answer)
			if perCall > c.limit*answer {
				t.Errorf("%v %s retrieval allocates %.3f× its answer's %.0f bytes, limit %.2f×",
					scalar, c.name, perCall/answer, answer, c.limit)
			}
		}
	}
}

// allocatedBytes reports the bytes fn allocates a call, after one call
// that fills the pools.
func allocatedBytes(fn func()) float64 {
	const runs = 4
	fn()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / runs
}
