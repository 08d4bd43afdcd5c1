package core

import (
	"cmp"
	"math"
	"slices"
	"sync"

	"repro/internal/bitplane"
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

// minPassTargets is the smallest number of targets of an interpolation
// pass worth handing to one worker: the quantizer and the rebuild walk a
// pass with their vector kernels at a few ns a target, and below it the
// goroutine overhead beats the win. It keeps every pass of a 32³ tile —
// 16 384 targets at most — on one goroutine, where a second one costs more
// than it saves, while a 128³ field's passes still shard.
const minPassTargets = 1 << 15

// outlier is one outlier escape: its level-local sequence index and its
// value, widened to float64 in memory for both scalar types (lossless); the
// header serializes it at the native width.
type outlier struct {
	seq uint32
	val float64
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
// appending outliers to m in canonical sequence order. Each pass is walked
// a block of rows at a time (interp.Pass.Walk) and sharded by lines across
// cores, as the rebuild walks it; a pass's outliers come out in walk order
// and are sorted once before they are appended.
func (e *levelQuantizer[T]) quantizeLevel(dec *interp.Decomposition, l int, kind interp.Kind, ks []int32, m *levelMeta) {
	passes := dec.LevelPasses(l)
	for pi := range passes {
		p := &passes[pi]
		lines, width := p.Lines()
		if lines == 0 {
			continue
		}
		var outliers []outlier
		minLines := max(1, minPassTargets/width)
		if chunks, per := chunkSpan(lines, minLines, 1); chunks <= 1 {
			outliers = e.quantizeLines(p, kind, 0, lines, ks)
		} else {
			shards := make([][]outlier, chunks)
			ParallelFor(chunks, func(c int) {
				lo := c * per
				shards[c] = e.quantizeLines(p, kind, lo, min(lo+per, lines), ks)
			})
			outliers = slices.Concat(shards...)
		}
		byIdx := func(a, b outlier) int { return cmp.Compare(a.seq, b.seq) }
		if !slices.IsSortedFunc(outliers, byIdx) {
			slices.SortFunc(outliers, byIdx)
		}
		for _, o := range outliers {
			m.outlierIdx = append(m.outlierIdx, o.seq)
			m.outlierVal = append(m.outlierVal, o.val)
		}
	}
}

// quantizeLines quantizes lines [lo, hi) of pass p and returns their
// outliers in walk order.
func (e *levelQuantizer[T]) quantizeLines(p *interp.Pass, kind interp.Kind, lo, hi int, ks []int32) []outlier {
	var acc []outlier
	var r interp.Run // outside the loop, as in applyLines
	w := p.Walk(kind, lo, hi)
	for w.Next(&r) {
		acc = e.quantizeBlock(&r, ks, acc)
	}
	return acc
}

// quantizeBlock quantizes every point of the block r and appends its
// outliers to acc: through a vector kernel when its rows hold a group,
// else when its columns do (see lineup), the scalar loop taking each group
// the kernel does not commit, else through the scalar loop alone. It may
// transpose r and move it through its rows.
func (e *levelQuantizer[T]) quantizeBlock(r *interp.Run, ks []int32, acc []outlier) []outlier {
	lineup[T](r)
	lanes := lanes[T]()
	at := quantizeAccel(e.work, ks, r, 0, e.step, e.invStep, e.eb)
	for at >= 0 {
		// Group g of a row holds its points [g·lanes, (g+1)·lanes): the
		// last only those of the row.
		g, row := at/r.Rows, at%r.Rows
		lo := g * lanes
		acc = e.quantizeScalar(r, ks, r.Flat+row*r.RowStep+lo*r.Step, r.Seq+row*r.RowSeqStep+lo*r.SeqStep, min(lanes, r.N-lo), acc)
		at = quantizeAccel(e.work, ks, r, at+1, e.step, e.invStep, e.eb)
	}
	if at == -1 {
		return acc
	}
	for rows := r.Rows; rows > 0; rows-- {
		acc = e.quantizeScalar(r, ks, r.Flat, r.Seq, r.N, acc)
		r.Flat += r.RowStep
		r.Seq += r.RowSeqStep
	}
	return acc
}

// lanes returns the lanes of T's vector kernels: 4 float64, 8 float32.
func lanes[T grid.Scalar]() int {
	if _, ok := any(T(0)).(float64); ok {
		return 4
	}
	return 8
}

// lineup turns the block r, if need be, so that its rows are the runs a
// kernel takes: they stay rows when they fill a vector group or are at
// least as many targets as there are rows, else they become its columns
// (the boundary targets of the innermost pass, rows too short for a
// group).
func lineup[T grid.Scalar](r *interp.Run) {
	if r.N < lanes[T]() && r.Rows > r.N {
		r.Transpose()
	}
}

// quantizeScalar quantizes the n points of r from flat index f and
// sequence index seq on, one at a time, and appends their outliers to acc.
func (e *levelQuantizer[T]) quantizeScalar(r *interp.Run, ks []int32, f, seq, n int, acc []outlier) []outlier {
	w := e.work
	step, invStep, eb := e.step, e.invStep, e.eb
	for ; n > 0; n-- {
		// Predict inlines (it is a small switch on the run's Mode, a
		// loop-invariant and thus perfectly predicted branch), and the
		// quantize-reconstruct arithmetic below is the exact expression
		// sequence of quant.QuantizeReconstruct (pinned by the kernel
		// spec test), inlined because the call does not. The residual
		// scales in T and widens — exactly — for the window test, so
		// math.Round of an in-window value can never produce an index
		// outside the negabinary window; the bound is checked in float64
		// against the value as stored in T, so float32 rounding can only
		// escape to the outlier path, never break the guarantee.
		pred := interp.Predict(r, w, f)
		orig := w[f]
		qf := float64((orig - pred) * invStep)
		var k int32
		ok := false
		if qf >= -nb.MaxIndex && qf <= nb.MaxIndex {
			k = int32(math.Round(qf))
			recon := pred + T(k)*step
			if d := float64(recon) - float64(orig); d <= eb && d >= -eb {
				w[f], ok = recon, true
			}
		}
		if !ok {
			k = 0
			acc = append(acc, outlier{uint32(seq), float64(orig)})
		}
		ks[seq] = k
		seq += r.SeqStep
		f += r.Step
	}
	return acc
}

// applyLevel reconstructs level l into data (the retrieval side of the
// fusion): prediction plus the dequantized truncated index, with outlier
// positions restored to their exact stored values. The pred+k·step sum
// runs at T's native width, the exact expression the compressor's work
// array evaluated, so reconstruction tracks the encoder bit for bit at any
// scalar width. Each pass is walked a block of rows at a time
// (interp.Pass.Walk) and sharded by lines across cores. The indices are
// those of the level's first keep planes, as fetch decoded them into
// planes (see applyShard).
func applyLevel[T grid.Scalar](a *Archive, data []T, l int, planes []byte, keep int) {
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
		minLines := max(1, minPassTargets/width)
		if chunks, _ := chunkSpan(lines, minLines, 1); chunks <= 1 {
			applyShard(p, kind, 0, lines, data, planes, keep, step, m)
			continue
		}
		parallelChunks(lines, minLines, 1, func(lo, hi int) {
			applyShard(p, kind, lo, hi, data, planes, keep, step, m)
		})
	}
}

// mergeBlockValues is how many indices a rebuild merges at a time: 16 KB
// of int32, still in the first-level cache when applyLines reads them back.
const mergeBlockValues = 4096

// applyShard reconstructs lines [lo, hi) of pass p from the level's first
// keep planes: they are merged into pooled scratch a block of lines at a
// time, each block just before applyLines consumes it, so a rebuild never
// holds a level's indices at once.
func applyShard[T grid.Scalar](p *interp.Pass, kind interp.Kind, lo, hi int, data []T, planes []byte, keep int, step T, m *levelMeta) {
	_, width := p.Lines()
	per := max(1, mergeBlockValues/width)
	bm := blockMerges.Get().(*blockMerge)
	for b := lo; b < hi; b += per {
		e := min(b+per, hi)
		// MergeDecodeRange starts on a plane byte: from the 8-aligned
		// index at or below the block's first, shifted out by base.
		base := (p.SeqOffset() + b*width) &^ 7
		bks := bm.merge(planes, keep, m, base, p.SeqOffset()+e*width)
		applyLines(p, kind, b, e, data, bks, base, step, m)
	}
	bm.planes = [bitplane.Planes][]byte{} // drop the references to planes
	if cap(bm.ks) > 2*mergeBlockValues {
		bm.ks = nil // a block of one long line: not worth keeping
	}
	blockMerges.Put(bm)
}

// blockMerge is one shard's scratch for applyShard, pooled so that a
// shard allocates neither the indices nor the plane table.
type blockMerge struct {
	ks     []int32
	planes [bitplane.Planes][]byte
}

var blockMerges = sync.Pool{New: func() any { return new(blockMerge) }}

// merge returns the indices [base, end) of a level truncated to its first
// keep planes, merged from planes (the level's slots of a plane backing,
// as fetch decodes them) into bm's scratch. base is a
// multiple of 8. The planes not loaded stay nil: the merge counts them as
// zero and masks off what that spills below the last loaded one.
func (bm *blockMerge) merge(planes []byte, keep int, m *levelMeta, base, end int) []int32 {
	n := end - base
	if cap(bm.ks) < n {
		bm.ks = make([]int32, n)
	}
	loaded := bm.planes[bitplane.Planes-m.usedPlanes:][:keep]
	for p := range loaded {
		loaded[p] = m.plane(planes, p)[base>>3:]
	}
	ks := bm.ks[:n]
	bitplane.MergeDecodeRange(ks, bm.planes[:], 0, n, ^uint32(0)<<(m.usedPlanes-keep))
	return ks
}

// applyLines reconstructs lines [lo, hi) of pass p, then restores the
// outliers among them. ks holds the level's indices from sequence index
// base on. The runs write pred + k·step at an outlier's position too (its
// index is 0); nothing in the pass reads a target, so overwriting it
// afterwards is exact.
func applyLines[T grid.Scalar](p *interp.Pass, kind interp.Kind, lo, hi int, data []T, ks []int32, base int, step T, m *levelMeta) {
	// The walk is declared outside the loop: a for-clause variable is
	// copied into every iteration, and Walk is a dozen words.
	var r interp.Run
	w := p.Walk(kind, lo, hi)
	for w.Next(&r) {
		r.Seq -= base
		applyRun(data, ks, &r, step)
	}
	_, width := p.Lines()
	seqLo, seqHi := p.SeqOffset()+lo*width, p.SeqOffset()+hi*width
	oi, _ := slices.BinarySearch(m.outlierIdx, uint32(seqLo))
	for ; oi < len(m.outlierIdx) && int(m.outlierIdx[oi]) < seqHi; oi++ {
		data[p.FlatIndex(int(m.outlierIdx[oi])-p.SeqOffset())] = T(m.outlierVal[oi])
	}
}

// applyRun writes pred + k·step to every point of the block r: through a
// vector kernel when its rows hold a group, else when its columns do (see
// lineup), else through the scalar loop. It may transpose r and move it
// through its rows.
func applyRun[T grid.Scalar](data []T, ks []int32, r *interp.Run, step T) {
	lineup[T](r)
	if applyAccel(data, ks, r, step) {
		return
	}
	for rows := r.Rows; rows > 0; rows-- {
		f, seq := r.Flat, r.Seq
		for n := r.N; n > 0; n-- {
			data[f] = interp.Predict(r, data, f) + T(ks[seq])*step
			f += r.Step
			seq += r.SeqStep
		}
		r.Flat += r.RowStep
		r.Seq += r.RowSeqStep
	}
}
