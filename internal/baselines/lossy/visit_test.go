package lossy

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/grid"
	"repro/internal/interp"
)

// TestVisitLevelReplaysResiduals: a walk that records residuals against
// VisitLevel's predictions and a second walk that adds them back, starting
// from the anchors alone, reconstruct the field exactly, and together the
// anchors and the levels visit every point once. This is the contract the
// float64 baselines build their encoders and decoders on.
func TestVisitLevelReplaysResiduals(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, shape := range []grid.Shape{{31}, {12, 13}, {9, 8, 7}, {3, 4, 5, 2}} {
		for _, kind := range []interp.Kind{interp.Linear, interp.Cubic} {
			d, err := interp.NewDecomposition(shape)
			if err != nil {
				t.Fatal(err)
			}
			orig := make([]float64, shape.Len())
			for i := range orig {
				orig[i] = rng.NormFloat64()
			}
			visits := make([]int, len(orig))
			rec := make([]float64, len(orig))
			for _, a := range d.Anchors() {
				visits[a]++
				rec[a] = orig[a]
			}
			work := append([]float64(nil), orig...)
			var residuals []float64
			for l := d.NumLevels(); l >= 1; l-- {
				VisitLevel(d, work, l, kind, func(idx int, pred float64) float64 {
					visits[idx]++
					residuals = append(residuals, work[idx]-pred)
					return work[idx]
				})
			}
			pos := 0
			for l := d.NumLevels(); l >= 1; l-- {
				VisitLevel(d, rec, l, kind, func(_ int, pred float64) float64 {
					v := pred + residuals[pos]
					pos++
					return v
				})
			}
			for i := range orig {
				if visits[i] != 1 {
					t.Fatalf("shape %v %v: point %d visited %d times", shape, kind, i, visits[i])
				}
				if math.Abs(rec[i]-orig[i]) > 1e-12 {
					t.Fatalf("shape %v %v: point %d: rec=%v orig=%v", shape, kind, i, rec[i], orig[i])
				}
			}
		}
	}
}

// TestVisitLevelNilDataCounts: with nil data VisitLevel only enumerates,
// reporting zero predictions, LevelCount points per level.
func TestVisitLevelNilDataCounts(t *testing.T) {
	d, err := interp.NewDecomposition(grid.Shape{33, 20, 7})
	if err != nil {
		t.Fatal(err)
	}
	for l := 1; l <= d.NumLevels(); l++ {
		n := 0
		VisitLevel(d, nil, l, interp.Cubic, func(_ int, pred float64) float64 {
			if pred != 0 {
				t.Fatalf("level %d: prediction %v without data", l, pred)
			}
			n++
			return 1
		})
		if n != d.LevelCount(l) {
			t.Errorf("level %d: visited %d, LevelCount %d", l, n, d.LevelCount(l))
		}
	}
}

// BenchmarkVisitLevelShim measures the finest level of a 128³ grid through
// the per-point VisitFunc walk; interp's BenchmarkInterpPass is the same
// walk over runs, so the pair prices what the run batching saves.
func BenchmarkVisitLevelShim(b *testing.B) {
	shape := grid.Shape{128, 128, 128}
	d, err := interp.NewDecomposition(shape)
	if err != nil {
		b.Fatal(err)
	}
	data := make([]float64, shape.Len())
	for i := range data {
		data[i] = float64(i%251) * 0.25
	}
	var sink float64
	b.SetBytes(int64(d.LevelCount(1) * 8))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		VisitLevel(d, data, 1, interp.Cubic, func(idx int, pred float64) float64 {
			sink += pred
			return data[idx]
		})
	}
	_ = sink
}
