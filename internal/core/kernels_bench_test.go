package core

import (
	"math"
	"testing"

	"repro/internal/datagen"
	"repro/internal/grid"
	"repro/internal/interp"
	"repro/internal/quant"
)

// BenchmarkQuantizeLevel measures the fused predict+quantize kernel over
// the finest level of a 128³ grid — the dominant stage of Compress.
func BenchmarkQuantizeLevel(b *testing.B) {
	shape := grid.Shape{128, 128, 128}
	dec, err := interp.NewDecomposition(shape)
	if err != nil {
		b.Fatal(err)
	}
	orig := make([]float64, shape.Len())
	for i := range orig {
		orig[i] = math.Sin(float64(i) * 1e-3)
	}
	work := make([]float64, len(orig))
	ks := make([]int32, dec.LevelCount(1))
	enc := newLevelQuantizer(work, quant.New(1e-6))
	b.SetBytes(int64(len(ks) * 8))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work, orig)
		var m levelMeta
		enc.quantizeLevel(dec, 1, interp.Cubic, ks, &m)
		if len(m.outlierIdx) != 0 {
			b.Fatalf("unexpected outliers: %d", len(m.outlierIdx))
		}
	}
}

// BenchmarkDecodeRealPlanes measures the entropy-decode half of a full
// retrieval — fetchPlanes for every level, no merge, no reconstruction —
// over planes a real archive holds: Density as float32 at 1e-5 of its
// range, once as the 128³ field and once as that field's corner 32³ tile,
// the unit a chunked store decodes. MB/s are decoded plane bytes; allocs/op
// pin that a raise costs one backing, not one allocation per plane.
func BenchmarkDecodeRealPlanes(b *testing.B) {
	field, err := datagen.GenerateShape("Density", grid.Shape{128, 128, 128})
	if err != nil {
		b.Fatal(err)
	}
	eb := 1e-5 * field.ValueRange()
	tile := grid.MustNew[float32](grid.Shape{32, 32, 32})
	for z := 0; z < 32; z++ {
		for y := 0; y < 32; y++ {
			for x := 0; x < 32; x++ {
				tile.Set(float32(field.At(z, y, x)), z, y, x)
			}
		}
	}
	for _, c := range []struct {
		name string
		g    *grid.Grid[float32]
	}{{"tile32", tile}, {"field128", grid.Narrow(field)}} {
		b.Run(c.name, func(b *testing.B) {
			blob, err := Compress(c.g, Options{ErrorBound: eb, Interpolation: interp.Cubic})
			if err != nil {
				b.Fatal(err)
			}
			a, err := NewArchive(blob)
			if err != nil {
				b.Fatal(err)
			}
			var planeBytes int64
			for l := 1; l <= a.h.levels; l++ {
				m := a.h.metaOf(l)
				planeBytes += int64(m.usedPlanes * ((m.count + 7) / 8))
			}
			b.SetBytes(planeBytes)
			b.ReportAllocs()
			for b.Loop() {
				r := &Result{arch: a, plan: Plan{Keep: make([]int, a.h.levels)}}
				for l := 1; l <= a.h.levels; l++ {
					if _, err := r.fetchPlanes(l, a.h.metaOf(l).usedPlanes); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
