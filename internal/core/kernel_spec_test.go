package core

import (
	"math"
	"testing"

	"repro/internal/grid"
	"repro/internal/interp"
	"repro/internal/quant"
)

// TestKernelMatchesQuantSpec pins the "single point of truth" claim: the
// fused compression kernel (levelQuantizer) must produce bit-identical
// indices, reconstructions, and outlier decisions to composing the public
// spec functions — interp.Predict + quant.QuantizeReconstruct — point by
// point in canonical order. If either copy of the arithmetic drifts, this
// fails for the width that drifted.
func TestKernelMatchesQuantSpec(t *testing.T) {
	t.Run("float64", func(t *testing.T) { kernelSpecCase[float64](t) })
	t.Run("float32", func(t *testing.T) { kernelSpecCase[float32](t) })
}

func kernelSpecCase[T grid.Scalar](t *testing.T) {
	shape := grid.Shape{19, 23, 17}
	g64 := goldenField(t, shape) // includes outlier spikes
	var data []T
	switch d := any(&data).(type) {
	case *[]float64:
		*d = g64.Data()
	case *[]float32:
		*d = grid.Narrow(g64).Data()
	}
	dec, err := interp.NewDecomposition(shape)
	if err != nil {
		t.Fatal(err)
	}
	q := quant.New(1e-6)
	kind := interp.Cubic

	refKs, refOutliers, work := checkQuantizerSpec(t, data, dec, kind, q)

	// Reference decode: anchors plus interp.Predict + quant.DequantizeApply
	// per point (outlier positions overridden with their exact originals)
	// must reproduce the encoder's work array bit for bit — pinning the
	// retrieval kernel's inlined copy of the dequantize expression against
	// its spec function, like the encode side above.
	refData := make([]T, len(data))
	for _, idx := range dec.Anchors() {
		refData[idx] = data[idx] // anchors are lossless
	}
	for l := dec.NumLevels(); l >= 1; l-- {
		outSet := make(map[uint32]bool, len(refOutliers[l]))
		for _, o := range refOutliers[l] {
			outSet[o.seq] = true
		}
		for _, p := range dec.LevelPasses(l) {
			p.VisitRuns(kind, 0, p.Targets(), func(r *interp.Run) {
				f, seq := r.Flat, r.Seq
				for i := 0; i < r.N; i++ {
					v := quant.DequantizeApply(q, interp.Predict(r, refData, f), refKs[l][seq])
					if outSet[uint32(seq)] {
						v = data[f] // outliers carry the exact original
					}
					refData[f] = v
					seq++
					f += r.Step
				}
			})
		}
	}
	for i := range refData {
		if refData[i] != work[i] {
			t.Fatalf("spec decode diverges from encoder work array at %d: %v vs %v", i, refData[i], work[i])
		}
	}

	// The retrieval kernel must agree with that same spec: full-fidelity
	// reconstruction equals the encoder's work array exactly.
	gr, err := grid.FromSlice(data, shape)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := Compress(gr, Options{ErrorBound: 1e-6, Interpolation: kind})
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewArchive(blob)
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.RetrieveAll()
	if err != nil {
		t.Fatal(err)
	}
	recon := DataOf[T](res)
	for i := range recon {
		if recon[i] != work[i] {
			t.Fatalf("retrieval diverges from encoder work array at %d: %v vs %v", i, recon[i], work[i])
		}
	}
}

// specQuantize is the compressor's quantization composed from the spec
// functions, interp.Predict + quant.QuantizeReconstruct, point by point in
// canonical order: every level's indices and outliers' sequence indices,
// and the work array after level 1.
func specQuantize[T grid.Scalar](data []T, dec *interp.Decomposition, kind interp.Kind, q quant.Quantizer) (ks [][]int32, outliers map[int][]outlier, work []T) {
	work = append([]T(nil), data...)
	ks = make([][]int32, dec.NumLevels()+1)
	outliers = make(map[int][]outlier)
	for l := dec.NumLevels(); l >= 1; l-- {
		ks[l] = make([]int32, dec.LevelCount(l))
		for _, p := range dec.LevelPasses(l) {
			p.VisitRuns(kind, 0, p.Targets(), func(r *interp.Run) {
				f, seq := r.Flat, r.Seq
				for i := 0; i < r.N; i++ {
					pred, orig := interp.Predict(r, work, f), work[f]
					k, recon, ok := quant.QuantizeReconstruct(q, orig, pred)
					ks[l][seq] = k
					work[f] = recon
					if !ok {
						outliers[l] = append(outliers[l], outlier{uint32(seq), float64(orig)})
					}
					seq++
					f += r.Step
				}
			})
		}
	}
	return ks, outliers, work
}

// checkQuantizerSpec runs the fused kernel (levelQuantizer) over every
// level of data and requires specQuantize's indices, outliers — sequence
// indices in canonical order, and values — and work array, bit for bit. It
// returns the spec's results.
func checkQuantizerSpec[T grid.Scalar](t *testing.T, data []T, dec *interp.Decomposition, kind interp.Kind, q quant.Quantizer) ([][]int32, map[int][]outlier, []T) {
	t.Helper()
	refKs, refOutliers, refWork := specQuantize(data, dec, kind, q)
	work := append([]T(nil), data...)
	enc := newLevelQuantizer(work, q)
	for l := dec.NumLevels(); l >= 1; l-- {
		var m levelMeta
		ks := make([]int32, dec.LevelCount(l))
		enc.quantizeLevel(dec, l, kind, ks, &m)
		for i := range ks {
			if ks[i] != refKs[l][i] {
				t.Fatalf("level %d index %d: kernel k=%d, spec k=%d", l, i, ks[i], refKs[l][i])
			}
		}
		if len(m.outlierIdx) != len(refOutliers[l]) {
			t.Fatalf("level %d: kernel %d outliers, spec %d", l, len(m.outlierIdx), len(refOutliers[l]))
		}
		for i, o := range refOutliers[l] {
			if m.outlierIdx[i] != o.seq || math.Float64bits(m.outlierVal[i]) != math.Float64bits(o.val) {
				t.Fatalf("level %d outlier %d: kernel (%d, %v), spec (%d, %v)", l, i, m.outlierIdx[i], m.outlierVal[i], o.seq, o.val)
			}
		}
	}
	for i := range work {
		if math.Float64bits(float64(work[i])) != math.Float64bits(float64(refWork[i])) {
			t.Fatalf("work array diverges at %d: kernel %v, spec %v", i, work[i], refWork[i])
		}
	}
	return refKs, refOutliers, work
}
