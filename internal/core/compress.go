package core

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/bitplane"
	"repro/internal/codec"
	"repro/internal/grid"
	"repro/internal/interp"
	"repro/internal/quant"
)

// Compress encodes the grid into an IPComp archive. The input data is not
// modified. The returned blob decompresses to within opt.ErrorBound of the
// input at every point, and supports progressive retrieval at any coarser
// fidelity.
//
// The scalar type is recorded in the archive header: float64 grids produce
// version-1 archives byte-identical to earlier releases, float32 grids
// produce version-2 archives that store anchors and outliers at 4 bytes and
// move half the memory bandwidth through every kernel. The error bound is
// honored exactly for both widths — all bound arithmetic runs in float64.
func Compress[T grid.Scalar](g *grid.Grid[T], opt Options) ([]byte, error) {
	if !(opt.ErrorBound > 0) || math.IsInf(opt.ErrorBound, 0) {
		return nil, fmt.Errorf("core: error bound must be positive and finite, got %v", opt.ErrorBound)
	}
	if opt.Interpolation != interp.Linear && opt.Interpolation != interp.Cubic {
		return nil, fmt.Errorf("core: unknown interpolation kind %d", opt.Interpolation)
	}
	threshold := opt.ProgressiveThreshold
	if threshold <= 0 {
		threshold = DefaultProgressiveThreshold
	}

	dec, err := interp.NewDecomposition(g.Shape())
	if err != nil {
		return nil, err
	}
	L := dec.NumLevels()
	q := quant.New(opt.ErrorBound)

	h := &header{
		kind:   opt.Interpolation,
		scalar: ScalarOf[T](),
		shape:  g.Shape().Clone(),
		eb:     opt.ErrorBound,
		levels: L,
		meta:   make([]levelMeta, L),
	}

	// Work on a copy: compression simulates decompression in place so that
	// predictions always come from reconstructed (lossy) values. For
	// float32, the copy also gathers the input magnitude that v2 records
	// for the optimizer's rounding slack (roundSlack) — one scan with the
	// copy (copyMaxAbs). NaN values are deliberately not captured: every
	// point whose prediction chain touches a non-finite value escapes
	// through the exact outlier path at any plan, so the slack only needs
	// to cover the finite points, while +Inf still propagates into maxAbs
	// and (honestly) forbids finite truncated-plan guarantees.
	work := GetScratch[T](g.Len())
	defer PutScratch(work)
	if h.scalar == Float32 {
		h.maxAbs = copyMaxAbs(work, g.Data())
	} else {
		copy(work, g.Data())
	}

	// Anchors are stored losslessly and stay exact in the work array.
	anchorIdx := dec.Anchors()
	h.anchors = make([]float64, len(anchorIdx))
	for i, f := range anchorIdx {
		h.anchors[i] = float64(work[f])
	}

	// Pre-size every level's index buffer from the closed-form level count:
	// one pooled backing holds all levels, no append growth on the hot path.
	counts := make([]int, L+1)
	totalPts := 0
	for l := 1; l <= L; l++ {
		counts[l] = dec.LevelCount(l)
		totalPts += counts[l]
	}
	ksAll := GetScratch[int32](totalPts)
	defer PutScratch(ksAll)
	qvals := make([][]int32, L+1) // 1-based by level
	for l, off := 1, 0; l <= L; l++ {
		qvals[l] = ksAll[off : off+counts[l] : off+counts[l]]
		off += counts[l]
	}

	// Quantize each level against predictions from the (lossy) work array,
	// coarse to fine, sharding each dimension pass across the worker pool.
	enc := newLevelQuantizer(work, q)
	for l := L; l >= 1; l-- {
		m := h.metaOf(l)
		enc.quantizeLevel(dec, l, opt.Interpolation, qvals[l], m)
		m.count = counts[l]
	}

	// Decide which levels are progressive: level counts grow roughly 2^D
	// per finer level, so the progressive set is a prefix 1..Lp.
	h.prog = 0
	for l := 1; l <= L; l++ {
		if h.metaOf(l).count >= threshold {
			h.prog = l
		} else {
			break
		}
	}

	// Bitplane-encode every level. Non-progressive levels use the same
	// encoding (a retrieval simply always loads all their planes), which
	// keeps the format uniform.
	blocks := make([][][]byte, L+1)
	for l := 1; l <= L; l++ {
		m := h.metaOf(l)
		// Split into a pooled backing (every byte in range is overwritten,
		// so no zeroing), in the one pass after quantization.
		backing := GetScratch[byte](bitplane.Planes * m.planeStride())
		var all [bitplane.Planes][]byte
		for p := range all {
			all[p] = m.plane(backing, p)
		}
		used, maxDrop := encodeLevel(qvals[l], all[:])
		m.usedPlanes, m.maxDrop = used, maxDrop
		planes := all[32-used:] // drop the identically-zero leading planes
		m.blockSizes = make([]uint32, used)
		blocks[l] = make([][]byte, used)
		// Blocks are independent after predictive coding; DEFLATE them
		// concurrently (bit-identical to the serial order).
		ParallelFor(used, func(p int) {
			blocks[l][p] = codec.EncodeBlock(planes[p])
		})
		for p := 0; p < used; p++ {
			m.blockSizes[p] = uint32(len(blocks[l][p]))
		}
		PutScratch(backing)
	}

	head := h.marshal()
	h.headerSize = int64(len(head))
	h.computeOffsets()

	out := make([]byte, 0, h.totalSize())
	out = append(out, head...)
	for l := L; l >= 1; l-- {
		for _, blk := range blocks[l] {
			out = append(out, blk...)
		}
	}
	return out, nil
}

// copyMaxAbs copies src into dst and returns the greatest |v| over src,
// NaN ignored, +0 when there is none: the larger magnitude of its least and
// greatest values, which grid.CopyRange finds in the copy's one pass.
func copyMaxAbs[T grid.Scalar](dst, src []T) float64 {
	lo, hi := grid.CopyRange(dst, src)
	return max(-float64(lo), float64(hi))
}

// ErrBoundTooTight is returned when a retrieval error bound is below the
// compression-time bound, which no loading strategy can satisfy.
var ErrBoundTooTight = errors.New("core: requested bound is tighter than the compression error bound")
