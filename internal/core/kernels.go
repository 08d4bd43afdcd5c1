package core

import (
	"math"
	"slices"

	"repro/internal/grid"
	"repro/internal/interp"
	"repro/internal/nb"
	"repro/internal/quant"
)

// This file holds the fused pass kernels of the compress/decompress hot
// path. The interpolation engine (internal/interp) hands out runs — batches
// of target points sharing one prediction formula — and the kernels here
// iterate them with the quantizer arithmetic inlined, instead of paying an
// indirect VisitFunc call plus a non-inlinable quantizer call per point.
//
// The kernels are generic over the archive's scalar type: predictions and
// the reconstructed work array live in T, while the residual window test
// and bound check always run in float64 (float32 widens losslessly), so
// the error guarantee is exact for both widths. For T = float64 every
// expression reduces to the pre-generic float64 sequence, which is what
// keeps v1 archives bit-identical (the golden archive tests pin this).
//
// Within one dimension pass every target depends only on points the pass
// never writes, so shards of a pass execute concurrently and still produce
// bit-identical output to the serial canonical order.

// minShardTargets is the smallest number of pass targets worth handing to
// one worker; below it the goroutine overhead beats the win.
const minShardTargets = 4096

// outlierAcc collects outlier escapes of one shard in sequence order. The
// values widen to float64 in memory for both scalar types (lossless); the
// header serializes them at the native width.
type outlierAcc struct {
	idx []uint32
	val []float64
}

// levelQuantizer fuses prediction and quantization for one compression
// level. The residual and reconstruction arithmetic runs at T's native
// width — for float64 the expressions are exactly those of
// quant.QuantizeReconstruct, which is what keeps v1 archives bit-identical;
// for float32 the narrower multiplies cost half the bandwidth and skip the
// per-point widen/narrow chatter. Only the window test and the error-bound
// check run in float64 (exact for both widths), so a float32 rounding
// artifact can only escape to the outlier path, never break the guarantee
// or push an index outside the negabinary window.
type levelQuantizer[T grid.Scalar] struct {
	work    []T
	step    T
	invStep T
	eb      float64
}

func newLevelQuantizer[T grid.Scalar](work []T, q quant.Quantizer) levelQuantizer[T] {
	return levelQuantizer[T]{work: work, step: T(q.Step()), invStep: T(q.InvStep()), eb: q.ErrorBound()}
}

// quantizeLevel quantizes every point of level l against predictions from
// the (lossy) work array, writing indices into ks (len = LevelCount(l)) and
// appending outliers to m in canonical sequence order.
func (e *levelQuantizer[T]) quantizeLevel(dec *interp.Decomposition, l int, kind interp.Kind, ks []int32, m *levelMeta) {
	passes := dec.LevelPasses(l)
	for pi := range passes {
		p := &passes[pi]
		total := p.Targets()
		if total == 0 {
			continue
		}
		shards, per := chunkSpan(total, minShardTargets, 1)
		if shards <= 1 {
			var acc outlierAcc
			e.quantizeRange(p, kind, 0, total, ks, &acc)
			m.outlierIdx = append(m.outlierIdx, acc.idx...)
			m.outlierVal = append(m.outlierVal, acc.val...)
			continue
		}
		accs := make([]outlierAcc, shards)
		ParallelFor(shards, func(sh int) {
			lo := sh * per
			hi := min(lo+per, total)
			e.quantizeRange(p, kind, lo, hi, ks, &accs[sh])
		})
		// Shards cover ascending sequence ranges, so appending in shard
		// order keeps the outlier table sorted by sequence index.
		for i := range accs {
			m.outlierIdx = append(m.outlierIdx, accs[i].idx...)
			m.outlierVal = append(m.outlierVal, accs[i].val...)
		}
	}
}

func (e *levelQuantizer[T]) quantizeRange(p *interp.Pass, kind interp.Kind, tLo, tHi int, ks []int32, acc *outlierAcc) {
	w := e.work
	step, invStep, eb := e.step, e.invStep, e.eb
	p.VisitRuns(kind, tLo, tHi, func(r *interp.Run) {
		f, seq, fstep := r.Flat, r.Seq, r.Step
		remaining := r.N
		for remaining > 0 {
			// The vector kernel commits whole groups until one trips the
			// window or bound guard; the scalar loop below then absorbs a
			// short span (which owns the outlier protocol) before retrying.
			if done := quantizeRunAccel(w, ks, r, f, seq, remaining, step, invStep, eb); done > 0 {
				f += done * fstep
				seq += done
				remaining -= done
				continue
			}
			g := remaining
			if asmKernels && g > 8 {
				g = 8
			}
			remaining -= g
			for n := g; n > 0; n-- {
				// Predict inlines (it is a small switch on the run's Mode, a
				// loop-invariant and thus perfectly predicted branch), and the
				// quantize-reconstruct arithmetic below is the exact expression
				// sequence of quant.QuantizeReconstruct (pinned by the kernel
				// spec test), inlined because the call does not. The residual
				// scales in T and widens — exactly — for the window test, so
				// math.Round of an in-window value can never produce an index
				// outside the negabinary window; the bound is checked in
				// float64 against the value as stored in T, so float32
				// rounding can only escape to the outlier path, never break
				// the guarantee.
				pred := interp.Predict(r, w, f)
				orig := w[f]
				qf := float64((orig - pred) * invStep)
				if qf >= -nb.MaxIndex && qf <= nb.MaxIndex {
					k := int32(math.Round(qf))
					recon := pred + T(k)*step
					if d := float64(recon) - float64(orig); d <= eb && d >= -eb {
						ks[seq] = k
						w[f] = recon
						seq++
						f += fstep
						continue
					}
				}
				acc.idx = append(acc.idx, uint32(seq))
				acc.val = append(acc.val, float64(orig))
				ks[seq] = 0
				seq++
				f += fstep
			}
		}
	})
}

// applyLevel reconstructs level l into data (the retrieval side of the
// fusion): prediction plus the dequantized truncated index, with outlier
// positions restored to their exact stored values. The pred+k·step sum
// runs at T's native width, the exact expression the compressor's work
// array evaluated, so reconstruction tracks the encoder bit for bit at any
// scalar width. Each pass is walked a column at a time (interp.Pass.Walk)
// and sharded by lines across cores.
func applyLevel[T grid.Scalar](a *Archive, data []T, l int, ks []int32) {
	m := a.h.metaOf(l)
	step := T(a.quant.Step())
	kind := a.h.kind
	passes := a.dec.LevelPasses(l)
	for pi := range passes {
		p := &passes[pi]
		lines, width := p.Lines()
		if lines == 0 {
			continue
		}
		// The shard closure escapes to the helpers: make it only when the
		// pass shards.
		minLines := max(1, minShardTargets/width)
		if chunks, _ := chunkSpan(lines, minLines, 1); chunks <= 1 {
			applyLines(p, kind, 0, lines, data, ks, step, m)
			continue
		}
		parallelChunks(lines, minLines, 1, func(lo, hi int) {
			applyLines(p, kind, lo, hi, data, ks, step, m)
		})
	}
}

// applyLines reconstructs lines [lo, hi) of pass p, then restores the
// outliers among them. The runs write pred + k·step at an outlier's
// position too (its index is 0); nothing in the pass reads a target, so
// overwriting it afterwards is exact.
func applyLines[T grid.Scalar](p *interp.Pass, kind interp.Kind, lo, hi int, data []T, ks []int32, step T, m *levelMeta) {
	// The walk is declared outside the loop: a for-clause variable is
	// copied into every iteration, and Walk is a dozen words.
	var r interp.Run
	w := p.Walk(kind, lo, hi)
	for w.Next(&r) {
		applyRun(data, ks, &r, step)
	}
	_, width := p.Lines()
	seqLo, seqHi := p.SeqOffset()+lo*width, p.SeqOffset()+hi*width
	oi, _ := slices.BinarySearch(m.outlierIdx, uint32(seqLo))
	for ; oi < len(m.outlierIdx) && int(m.outlierIdx[oi]) < seqHi; oi++ {
		data[p.FlatIndex(int(m.outlierIdx[oi])-p.SeqOffset())] = T(m.outlierVal[oi])
	}
}

// applyRun writes pred + k·step to every point of r: through the vector
// kernel when it takes the run, else through the scalar loop.
func applyRun[T grid.Scalar](data []T, ks []int32, r *interp.Run, step T) {
	if applyRunAccel(data, ks, r, step) {
		return
	}
	f, seq := r.Flat, r.Seq
	for n := r.N; n > 0; n-- {
		data[f] = interp.Predict(r, data, f) + T(ks[seq])*step
		f += r.Step
		seq += r.SeqStep
	}
}
