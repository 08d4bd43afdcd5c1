package client

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/grid"
)

// BenchmarkClientRegion prices the three rounds of a refine chain on the
// client alone: the handler is called directly, so ns/op is the server's
// planning and framing plus the client's parsing, decoding and reassembly —
// the quantity the benchmark's traced run reports as client.reassemble_ms
// (region) and client.refine_ms (refine1, refine2). Nothing retrieves a
// tile on the server side, so its tile cache stays empty and every round
// plans on the peek-miss path, parsing each tile's header afresh: a change
// to planning on cached tiles does not show here, but in
// BenchmarkPlanRegion's warm rows (internal/store). The field, tiling,
// boxes and bounds are those of the serve_warm_refine workload: 96³
// float64 in 32³ tiles, 48³ boxes on an 8-pitch lattice (8 to 27 tiles a
// box), 256·eb → 16·eb → 4·eb.
func BenchmarkClientRegion(b *testing.B) {
	fx := newFixture(b, false, "Pressure", grid.Shape{96, 96, 96}, grid.Shape{32, 32, 32}, 1e-6, 0)
	c := fx.client(nil)
	ctx := context.Background()
	mults := []float64{256, 16, 4}
	for step, name := range []string{"region", "refine1", "refine2"} {
		b.Run(name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(7))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				lo, hi := make([]int, 3), make([]int, 3)
				for d := range lo {
					lo[d] = rng.Intn((96-48)/8+1) * 8
					hi[d] = lo[d] + 48
				}
				var reg *Region
				var err error
				for s := 0; s <= step && err == nil; s++ {
					if s == step {
						b.StartTimer()
					}
					if s == 0 {
						reg, err = c.Region(ctx, "field", lo, hi, mults[0]*fx.eb)
					} else {
						err = reg.Refine(ctx, mults[s]*fx.eb)
					}
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
