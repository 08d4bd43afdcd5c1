package interp

import (
	"testing"

	"repro/internal/grid"
)

// BenchmarkInterpPass measures the raw run-engine iteration cost of the
// finest level of a 128³ grid: every dimension pass, predictions evaluated,
// no quantization. This is the predictor floor of compression throughput.
func BenchmarkInterpPass(b *testing.B) {
	shape := grid.Shape{128, 128, 128}
	d, err := NewDecomposition(shape)
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
		for _, p := range d.LevelPasses(1) {
			p.VisitRuns(Cubic, 0, p.Targets(), func(r *Run) {
				f := r.Flat
				s := 0.0
				for n := r.N; n > 0; n-- {
					s += r.Predict(data, f)
					f += r.Step
				}
				sink += s
			})
		}
	}
	_ = sink
}
