// Package lossy defines the interface every error-bounded lossy compressor
// in this repository implements, so the residual-progressive wrappers and
// the experiment harness can treat IPComp and the four baselines uniformly.
// It also holds the per-point interpolation walk the float64 baselines
// share.
package lossy

import (
	"repro/internal/grid"
	"repro/internal/interp"
)

// Codec is a one-shot error-bounded lossy compressor.
type Codec interface {
	// Name identifies the codec in experiment output ("SZ3", "ZFP", ...).
	Name() string
	// Compress encodes g such that decompression reconstructs every value
	// within the absolute error bound eb.
	Compress(g *grid.Grid[float64], eb float64) ([]byte, error)
	// Decompress reconstructs a grid of the given shape from blob.
	Decompress(blob []byte, shape grid.Shape) (*grid.Grid[float64], error)
}

// VisitFunc receives a target point's flat index and its interpolation
// prediction and returns the value to store there (the reconstructed value).
type VisitFunc func(idx int, pred float64) float64

// VisitLevel runs all dimension passes of level l (stride 2^(l-1)) of d over
// data in canonical order, one call per point. When data is nil the
// predictions are reported as zero and nothing is stored.
//
// It is a per-point view of interp's run engine for the float64 baselines;
// IPComp's kernels iterate the runs directly instead of paying a call per
// point.
func VisitLevel(d *interp.Decomposition, data []float64, l int, kind interp.Kind, fn VisitFunc) {
	for _, p := range d.LevelPasses(l) {
		p.VisitRuns(kind, 0, p.Targets(), func(r *interp.Run) {
			f := r.Flat
			for i := 0; i < r.N; i++ {
				pred := 0.0
				if data != nil {
					pred = r.Predict(data, f)
				}
				v := fn(f, pred)
				if data != nil {
					data[f] = v
				}
				f += r.Step
			}
		})
	}
}
