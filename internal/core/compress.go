package core

import (
	"errors"
	"fmt"
	"math"
	"math/bits"

	"repro/internal/bitplane"
	"repro/internal/codec"
	"repro/internal/grid"
	"repro/internal/interp"
	"repro/internal/nb"
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
	// float32, the copy loop also gathers the input magnitude that v2
	// records for the optimizer's rounding slack (roundSlack) — fused here
	// so it costs no extra pass. NaN values are deliberately not captured
	// (comparisons with NaN are false): every point whose prediction chain
	// touches a non-finite value escapes through the exact outlier path at
	// any plan, so the slack only needs to cover the finite points, while
	// +Inf still propagates into maxAbs and (honestly) forbids finite
	// truncated-plan guarantees.
	work := getWork[T](g.Len())
	defer putWork(work)
	if h.scalar == Float32 {
		var m T
		for i, v := range g.Data() {
			work[i] = v
			if v < 0 {
				v = -v
			}
			if v > m {
				m = v
			}
		}
		h.maxAbs = float64(m)
	} else {
		copy(work, g.Data())
	}

	// Anchors are stored losslessly and stay exact in the work array.
	anchorIdx := dec.Anchors()
	h.anchors = make([]float64, len(anchorIdx))
	for i, idx := range anchorIdx {
		h.anchors[i] = float64(work[idx])
	}

	// Pre-size every level's index buffer from the closed-form level count:
	// one pooled backing holds all levels, no append growth on the hot path.
	counts := make([]int, L+1)
	totalPts, maxCount := 0, 0
	for l := 1; l <= L; l++ {
		counts[l] = dec.LevelCount(l)
		totalPts += counts[l]
		if counts[l] > maxCount {
			maxCount = counts[l]
		}
	}
	ksAll := int32Scratch.Get(totalPts)
	defer int32Scratch.Put(ksAll)
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
	nbv := uint32Scratch.Get(maxCount)
	defer uint32Scratch.Put(nbv)
	blocks := make([][][]byte, L+1)
	for l := 1; l <= L; l++ {
		m := h.metaOf(l)
		ks := qvals[l]
		n := len(ks)
		nbvL := nbv[:n]
		parallelChunks(n, minShardTargets, 1, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				nbvL[i] = nb.Encode32(ks[i])
			}
		})
		used := bitplane.NumUsedPlanes(nbvL)
		m.usedPlanes = used
		m.maxDrop = exactMaxDrop(ks, nbvL, used)

		// XOR-predict and transpose in one pass into a pooled backing
		// (SplitPredictRange overwrites every byte in range, so no zeroing).
		nbytes := (n + 7) / 8
		backing := byteScratch.Get(bitplane.Planes * nbytes)
		var all [bitplane.Planes][]byte
		for p := range all {
			all[p] = backing[p*nbytes : (p+1)*nbytes : (p+1)*nbytes]
		}
		parallelChunks(n, minShardTargets, 8, func(lo, hi int) {
			bitplane.SplitPredictRange(all[:], nbvL, lo, hi)
		})
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
		byteScratch.Put(backing)
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

// exactMaxDrop computes maxDrop[d] = max_i |k_i - decode(truncate(nb_i, d))|
// for d = 0..used. This is the per-level ‖δy‖∞ table (in quantization-step
// units) that the retrieval optimizer consumes.
//
// Negabinary decode is positional — decode(u) = Σ_j u_j·(−2)^j — so the
// truncation loss at depth d is just the partial sum of the dropped digits:
// k − decode(truncate(u, d)) = Σ_{j<d} u_j·(−2)^j. Each value therefore
// contributes with one add per *set-digit depth* instead of a full
// decode per depth: build diff incrementally up to the value's top digit,
// past which the loss is constant at k and folds into a running tail
// maximum. That turns the O(used·n) scan into O(n·avg-digit-length) — the
// indices cluster near zero, so most values finish in a few digits — while
// producing exactly the same maxima (the table is serialized, and the
// golden digests pin it). Chunked across cores; per-chunk maxima merge
// with max, which is order-independent.
func exactMaxDrop(ks []int32, nbv []uint32, used int) []uint32 {
	maxDrop := make([]uint32, used+1)
	if used == 0 || len(nbv) == 0 {
		return maxDrop
	}
	chunks, per := chunkSpan(len(nbv), 1<<14, 1)
	partial := make([][bitplane.Planes + 1]uint32, chunks)
	ParallelFor(chunks, func(c int) {
		lo := c * per
		hi := min(lo+per, len(nbv))
		local := &partial[c]
		// pend[d] collects |k| of values whose digits end before depth d;
		// the post-pass spreads it to every deeper depth as a running max.
		var pend [bitplane.Planes + 2]uint32
		// The vector kernel covers the aligned bulk of the chunk with the
		// same local/pend contract; the scalar loop picks up at the tail.
		if n4 := (hi - lo) &^ 3; maxDropAccel(nbv, lo, n4, used, local, &pend) {
			lo += n4
		}
		for i := lo; i < hi; i++ {
			u := nbv[i]
			if u == 0 {
				continue // k == 0: zero loss at every depth
			}
			dEnd := bits.Len32(u) // one past the top set digit
			if dEnd > used {
				dEnd = used
			}
			// Branchless digit loop: the digits are effectively random, so a
			// conditional add mispredicts constantly; masking w by the digit
			// and folding |·| through a sign mask keeps the pipeline full.
			var diff int64
			w := int64(1) // (−2)^d
			for d := 1; d <= dEnd; d++ {
				diff += w & -int64(u&1)
				u >>= 1
				w *= -2
				s := diff >> 63
				a := uint32((diff ^ s) - s)
				if a > local[d] {
					local[d] = a
				}
			}
			if dEnd < used {
				k := ks[i]
				if k < 0 {
					k = -k
				}
				if uint32(k) > pend[dEnd+1] {
					pend[dEnd+1] = uint32(k)
				}
			}
		}
		run := uint32(0)
		for d := 1; d <= used; d++ {
			if pend[d] > run {
				run = pend[d]
			}
			if run > local[d] {
				local[d] = run
			}
		}
	})
	for _, local := range partial {
		for d := 1; d <= used; d++ {
			if local[d] > maxDrop[d] {
				maxDrop[d] = local[d]
			}
		}
	}
	return maxDrop
}

// Decompress performs a full-fidelity reconstruction of an archive held
// entirely in memory. It is equivalent to NewArchive(blob) followed by
// RetrieveAll, without retaining progressive state. Float32 archives are
// widened to float64 (losslessly); use RetrieveAll plus DataOf[float32]
// for a native single-precision view.
func Decompress(blob []byte) (*grid.Grid[float64], error) {
	a, err := NewArchive(blob)
	if err != nil {
		return nil, err
	}
	res, err := a.RetrieveAll()
	if err != nil {
		return nil, err
	}
	return res.Grid(), nil
}

// ErrBoundTooTight is returned when a retrieval error bound is below the
// compression-time bound, which no loading strategy can satisfy.
var ErrBoundTooTight = errors.New("core: requested bound is tighter than the compression error bound")
