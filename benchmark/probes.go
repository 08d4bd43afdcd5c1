package main

import (
	"time"

	"repro/internal/bitplane"
	"repro/internal/codec"
	"repro/internal/grid"
	"repro/internal/interp"
	"repro/internal/nb"
	"repro/internal/quant"
)

// Kernel probes. bitplane, interp and codec calls are fused inside
// internal/core, where no span can reach them from outside; the traced
// run therefore times each layer's public function on the workload's own
// array shape and on planes derived from the workload's own values, and
// reports the unit cost beside the unexplained core.self_ms.

// probeKernels accumulates unit costs over several arrays (the three
// fields of codec_field, or a sample of tiles); report pools them.
type probeKernels struct {
	values                float64 // interpolated elements per array
	visitNs, splitNs      float64
	mergeNs               float64
	planeBytes, predictNs float64 // bytes through PredictEncode+PredictDecode
	encBytes, encNs       float64 // plane bytes into EncodeBlockPolicy
	decBytes, decNs       float64 // plane bytes out of DecodeBlock
}

func (p *probeKernels) add(o probeKernels) {
	p.values += o.values
	p.visitNs += o.visitNs
	p.splitNs += o.splitNs
	p.mergeNs += o.mergeNs
	p.planeBytes += o.planeBytes
	p.predictNs += o.predictNs
	p.encBytes += o.encBytes
	p.encNs += o.encNs
	p.decBytes += o.decBytes
	p.decNs += o.decNs
}

func (p *probeKernels) report(res *result) {
	if p.values == 0 {
		return
	}
	res.set("interp.visit_ns_per_value", p.visitNs/p.values)
	res.set("bitplane.split_ns_per_value", p.splitNs/p.values)
	res.set("bitplane.merge_ns_per_value", p.mergeNs/p.values)
	res.set("bitplane.predict_ns_per_byte", p.predictNs/p.planeBytes)
	res.set("codec.encode_mbps", p.encBytes/1e6/(p.encNs/1e9))
	res.set("codec.decode_mbps", p.decBytes/1e6/(p.decNs/1e9))
}

// probeKernelsOn measures the layer kernels on one array: the interp run
// traversal with an empty kernel, then — on the negabinary quantisation
// indices of the array's own cubic-interpolation residuals at the
// workload's error bound — bitplane split, predictive coding, merge, and
// the block codec over every used plane. The best of reps repetitions is
// kept per kernel: unit costs are floors, not latencies.
func probeKernelsOn(data []float64, shape grid.Shape, eb float64, reps int) probeKernels {
	var out probeKernels
	dec, err := interp.NewDecomposition(shape)
	if err != nil {
		return out
	}
	n := len(data)

	best := func(fn func()) float64 {
		b := 0.0
		for r := 0; r < reps; r++ {
			start := time.Now()
			fn()
			if d := float64(time.Since(start)); r == 0 || d < b {
				b = d
			}
		}
		return b
	}

	visited := 0
	out.visitNs = best(func() {
		visited = 0
		for l := dec.NumLevels(); l >= 1; l-- {
			passes := dec.LevelPasses(l)
			for i := range passes {
				passes[i].VisitRuns(interp.Cubic, 0, passes[i].Targets(), func(r *interp.Run) { visited += r.N })
			}
		}
	})

	// Quantisation indices of every level's residuals against the original
	// values (the encoder predicts from reconstructed ones; the plane
	// statistics are the same to within the error bound).
	q := quant.New(eb)
	values := make([]uint32, 0, n)
	for l := dec.NumLevels(); l >= 1; l-- {
		passes := dec.LevelPasses(l)
		for i := range passes {
			passes[i].VisitRuns(interp.Cubic, 0, passes[i].Targets(), func(r *interp.Run) {
				for k := 0; k < r.N; k++ {
					f := r.Flat + k*r.Step
					idx, ok := q.Quantize(data[f] - r.Predict(data, f))
					if !ok {
						idx = 0 // an outlier: stored losslessly, index plane sees 0
					}
					values = append(values, nb.Encode32(idx))
				}
			})
		}
	}
	if len(values) == 0 {
		return out
	}
	out.values = float64(len(values))
	nbytes := (len(values) + 7) / 8
	planes := make([][]byte, bitplane.Planes)
	backing := make([]byte, bitplane.Planes*nbytes)
	for p := range planes {
		planes[p] = backing[p*nbytes : (p+1)*nbytes]
	}
	out.splitNs = best(func() { bitplane.SplitInto(planes, values) })
	used := bitplane.NumUsedPlanes(values)
	if used == 0 {
		used = 1
	}
	live := planes[bitplane.Planes-used:]
	out.planeBytes = float64(2 * used * nbytes)
	out.predictNs = best(func() {
		bitplane.PredictEncode(live)
		bitplane.PredictDecode(live)
	})
	merged := make([]uint32, len(values))
	out.mergeNs = best(func() { bitplane.MergeInto(merged, planes) })

	bitplane.PredictEncode(live)
	blocks := make([][]byte, used)
	out.encBytes = float64(used * nbytes)
	out.encNs = best(func() {
		for p := range live {
			blocks[p] = codec.EncodeBlockPolicy(live[p], codec.PolicyDeflate)
		}
	})
	out.decBytes = out.encBytes
	out.decNs = best(func() {
		for p := range blocks {
			if _, err := codec.DecodeBlock(blocks[p], nbytes); err != nil {
				panic("benchmark: codec.DecodeBlock rejected its own block: " + err.Error())
			}
		}
	})
	return out
}
