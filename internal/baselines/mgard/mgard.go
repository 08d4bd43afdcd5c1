// Package mgard implements MGARD-lite, a multigrid-style hierarchical
// compressor, and PMGARD, its progressive retrieval variant — the paper's
// multilevel-decomposition baseline (§6.1.3).
//
// MGARD decomposes the field into multilevel coefficients: the difference
// between each grid point and its multilinear interpolation from the next
// coarser grid, computed on the ORIGINAL data (a transform model, in the
// paper's §4.2 terminology, in contrast to IPComp's prediction model). Each
// level's coefficients are quantized with a level-scaled bound so the
// accumulated reconstruction error stays within the user bound. This "lite"
// version omits the Galerkin L2-projection correction of full MGARD; it
// retains the properties the comparison relies on: a hierarchical transform
// with per-level coefficient streams, moderate ratios, and progressive
// bitplane retrieval.
package mgard

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/baselines/lossy"
	"repro/internal/bitplane"
	"repro/internal/codec"
	"repro/internal/grid"
	"repro/internal/interp"
	"repro/internal/le"
	"repro/internal/nb"
	"repro/internal/quant"
)

const magic = 0x44474D // "MGD"

// levelBounds splits the global bound across levels: level l's quantization
// error is amplified by weight(l) on the way to the finest grid, so each
// level gets eb/(L·weight(l)).
func levelBounds(eb float64, levels, ndims int) []float64 {
	// MGARD-lite interpolates multilinearly (amplification factor 1 per
	// pass), but each level runs one pass per dimension and every pass can
	// pick up a fresh quantization error, so a level's error reaches the
	// finest grid multiplied by at most ndims.
	w := float64(ndims)
	out := make([]float64, levels+1)
	for l := 1; l <= levels; l++ {
		out[l] = eb / (float64(levels) * w)
	}
	return out
}

// Archive is a PMGARD progressive archive: per-level bitplane-coded
// multilevel coefficients.
type Archive struct {
	Shape   grid.Shape
	EB      float64
	Levels  int
	Anchors []float64
	// Per level (index 0 = level 1, finest):
	Counts     []int
	UsedPlanes []int
	MaxDrop    [][]uint32 // exact truncation loss per dropped-plane count
	Blocks     [][][]byte // [level][plane] encoded blocks
	OutIdx     [][]uint32
	OutVal     [][]float64
	levelEB    []float64
}

// CompressProgressive builds the PMGARD archive.
func CompressProgressive(g *grid.Grid[float64], eb float64) (*Archive, error) {
	if !(eb > 0) || math.IsInf(eb, 0) {
		return nil, fmt.Errorf("mgard: error bound must be positive and finite, got %v", eb)
	}
	dec, err := interp.NewDecomposition(g.Shape())
	if err != nil {
		return nil, err
	}
	L := dec.NumLevels()
	a := &Archive{
		Shape:      g.Shape().Clone(),
		EB:         eb,
		Levels:     L,
		Counts:     make([]int, L),
		UsedPlanes: make([]int, L),
		MaxDrop:    make([][]uint32, L),
		Blocks:     make([][][]byte, L),
		OutIdx:     make([][]uint32, L),
		OutVal:     make([][]float64, L),
		levelEB:    levelBounds(eb, L, len(g.Shape())),
	}

	// Transform model: coefficients are computed against the ORIGINAL
	// values of coarser points (no in-loop reconstruction).
	orig := g.Data()
	work := make([]float64, len(orig))
	copy(work, orig)
	anchorIdx := dec.Anchors()
	a.Anchors = make([]float64, len(anchorIdx))
	for i, idx := range anchorIdx {
		a.Anchors[i] = orig[idx]
	}
	for l := L; l >= 1; l-- {
		q := quant.New(a.levelEB[l])
		var ks []int32
		seq := uint32(0)
		li := l - 1
		lossy.VisitLevel(dec, work, l, interp.Linear, func(idx int, pred float64) float64 {
			k, ok := q.Quantize(orig[idx] - pred)
			if !ok {
				a.OutIdx[li] = append(a.OutIdx[li], seq)
				a.OutVal[li] = append(a.OutVal[li], orig[idx])
				k = 0
			}
			ks = append(ks, k)
			seq++
			// Keep the ORIGINAL value in the work array: later levels'
			// coefficients reference original coarser values. That is what
			// makes this a transform rather than a prediction model.
			return orig[idx]
		})
		a.Counts[li] = len(ks)

		nbv := make([]uint32, len(ks))
		for i, k := range ks {
			nbv[i] = nb.Encode32(k)
		}
		used := bitplane.NumUsedPlanes(nbv)
		a.UsedPlanes[li] = used
		a.MaxDrop[li] = exactMaxDrop(ks, nbv, used)
		planes := make([][]byte, bitplane.Planes)
		for p := range planes {
			planes[p] = make([]byte, (len(nbv)+7)/8)
		}
		bitplane.SplitInto(planes, nbv)
		planes = planes[bitplane.Planes-used:]
		bitplane.PredictEncode(planes)
		a.Blocks[li] = make([][]byte, used)
		for p := 0; p < used; p++ {
			a.Blocks[li][p] = codec.EncodeBlock(planes[p])
		}
	}
	return a, nil
}

func exactMaxDrop(ks []int32, nbv []uint32, used int) []uint32 {
	maxDrop := make([]uint32, used+1)
	for i, u := range nbv {
		k := int64(ks[i])
		for d := 1; d <= used; d++ {
			t := int64(nb.Decode32(nb.Truncate(u, d)))
			diff := k - t
			if diff < 0 {
				diff = -diff
			}
			if uint32(diff) > maxDrop[d] {
				maxDrop[d] = uint32(diff)
			}
		}
	}
	return maxDrop
}

// TotalSize returns the archive size when serialized.
func (a *Archive) TotalSize() int64 { return int64(len(a.Marshal())) }

// Retrieval is a PMGARD progressive reconstruction.
type Retrieval struct {
	Data        *grid.Grid[float64]
	LoadedBytes int64
	Bound       float64
}

// RetrieveErrorBound reconstructs within the requested L∞ bound, loading
// per level only the bitplanes PMGARD's per-level error estimator needs.
// The budget above the base eb is split evenly across levels (PMGARD's
// estimator-driven greedy allocation; coarser-grained than IPComp's global
// knapsack, which is one reason IPComp loads less — see paper §6.2.2).
func (a *Archive) RetrieveErrorBound(e float64) (*Retrieval, error) {
	if e < a.EB {
		return nil, fmt.Errorf("mgard: bound %g tighter than archive bound %g", e, a.EB)
	}
	dec, err := interp.NewDecomposition(a.Shape)
	if err != nil {
		return nil, err
	}
	g, err := grid.New[float64](a.Shape)
	if err != nil {
		return nil, err
	}
	data := g.Data()
	for i, idx := range dec.Anchors() {
		data[idx] = a.Anchors[i]
	}

	// Per-level share of the extra budget. The quantization error of level
	// l propagates with weight ndims (linear interpolation, one pass per
	// dimension), matching levelBounds.
	extra := e - a.EB
	nd := float64(len(a.Shape))
	ret := &Retrieval{Data: g}
	var loaded int64
	bound := a.EB
	for l := a.Levels; l >= 1; l-- {
		li := l - 1
		q := quant.New(a.levelEBAt(l))
		share := extra / (float64(a.Levels) * nd)
		// Keep the fewest planes with truncation loss within the share.
		used := a.UsedPlanes[li]
		keep := used
		for d := used; d >= 0; d-- {
			if float64(a.MaxDrop[li][d])*q.Step() <= share {
				keep = used - d
				break
			}
		}
		// The loaded planes at their bit positions, still predicted: one
		// pass merges them, undoes the prediction and decodes the indices
		// truncated to them.
		planes := make([][]byte, bitplane.Planes)
		planeBytes := (a.Counts[li] + 7) / 8
		for p := 0; p < keep; p++ {
			plane, err := codec.DecodeBlock(a.Blocks[li][p], planeBytes)
			if err != nil {
				return nil, err
			}
			planes[bitplane.Planes-used+p] = plane
			loaded += int64(len(a.Blocks[li][p]))
		}
		ks := make([]int32, a.Counts[li])
		bitplane.MergeDecodeRange(ks, planes, 0, len(ks), ^uint32(0)<<uint(used-keep))
		bound += float64(a.MaxDrop[li][used-keep]) * q.Step() * nd

		seq := 0
		oi := 0
		lossy.VisitLevel(dec, data, l, interp.Linear, func(_ int, pred float64) float64 {
			v := pred + q.Dequantize(ks[seq])
			if oi < len(a.OutIdx[li]) && a.OutIdx[li][oi] == uint32(seq) {
				v = a.OutVal[li][oi]
				oi++
			}
			seq++
			return v
		})
	}
	ret.LoadedBytes = loaded + a.headerSize()
	ret.Bound = bound
	return ret, nil
}

func (a *Archive) levelEBAt(l int) float64 {
	if a.levelEB == nil {
		a.levelEB = levelBounds(a.EB, a.Levels, len(a.Shape))
	}
	return a.levelEB[l]
}

func (a *Archive) headerSize() int64 {
	size := int64(4 + 1 + 8 + 1 + 4 + len(a.Anchors)*8)
	for li := 0; li < a.Levels; li++ {
		size += int64(4 + 1 + 4*(a.UsedPlanes[li]+1) + 4*len(a.Blocks[li]) +
			4 + len(a.OutIdx[li])*12)
	}
	return size
}

// Marshal serializes the archive.
func (a *Archive) Marshal() []byte {
	b := binary.LittleEndian.AppendUint32(nil, magic)
	b = append(b, uint8(len(a.Shape)))
	for _, d := range a.Shape {
		b = binary.LittleEndian.AppendUint32(b, uint32(d))
	}
	b = le.AppendF64(b, a.EB)
	b = append(b, uint8(a.Levels))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(a.Anchors)))
	for _, v := range a.Anchors {
		b = le.AppendF64(b, v)
	}
	for li := 0; li < a.Levels; li++ {
		b = binary.LittleEndian.AppendUint32(b, uint32(a.Counts[li]))
		b = append(b, uint8(a.UsedPlanes[li]))
		for _, d := range a.MaxDrop[li] {
			b = binary.LittleEndian.AppendUint32(b, d)
		}
		for _, blk := range a.Blocks[li] {
			b = binary.LittleEndian.AppendUint32(b, uint32(len(blk)))
		}
		b = binary.LittleEndian.AppendUint32(b, uint32(len(a.OutIdx[li])))
		for i := range a.OutIdx[li] {
			b = binary.LittleEndian.AppendUint32(b, a.OutIdx[li][i])
			b = le.AppendF64(b, a.OutVal[li][i])
		}
	}
	for li := 0; li < a.Levels; li++ {
		for _, blk := range a.Blocks[li] {
			b = append(b, blk...)
		}
	}
	return b
}
