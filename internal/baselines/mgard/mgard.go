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
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/baselines/lossy"
	"repro/internal/bitplane"
	"repro/internal/codec"
	"repro/internal/grid"
	"repro/internal/interp"
	"repro/internal/nb"
	"repro/internal/quant"
)

const magic = 0x44474D // "MGD"

// Codec is the non-progressive MGARD-lite compressor (lossy.Codec).
type Codec struct{}

// New returns an MGARD-lite codec.
func New() *Codec { return &Codec{} }

// Name implements lossy.Codec.
func (c *Codec) Name() string { return "MGARD" }

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

// Compress implements lossy.Codec.
func (c *Codec) Compress(g *grid.Grid[float64], eb float64) ([]byte, error) {
	a, err := CompressProgressive(g, eb)
	if err != nil {
		return nil, err
	}
	return a.Marshal(), nil
}

// Decompress implements lossy.Codec.
func (c *Codec) Decompress(blob []byte, shape grid.Shape) (*grid.Grid[float64], error) {
	a, err := Unmarshal(blob)
	if err != nil {
		return nil, err
	}
	if !a.Shape.Equal(shape) {
		return nil, fmt.Errorf("mgard: archive shape %v, requested %v", a.Shape, shape)
	}
	res, err := a.RetrieveErrorBound(a.EB)
	if err != nil {
		return nil, err
	}
	return res.Data, nil
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
		planes := bitplane.Split(nbv)[32-used:]
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
		full := make([][]byte, bitplane.Planes)
		sub := make([][]byte, used)
		planeBytes := (a.Counts[li] + 7) / 8
		for p := 0; p < keep; p++ {
			plane, err := codec.DecodeBlock(a.Blocks[li][p], planeBytes)
			if err != nil {
				return nil, err
			}
			sub[p] = plane
			loaded += int64(len(a.Blocks[li][p]))
		}
		bitplane.PredictDecode(sub)
		for p := 0; p < keep; p++ {
			full[bitplane.Planes-used+p] = sub[p]
		}
		nbv := make([]uint32, a.Counts[li])
		bitplane.MergeInto(nbv, full)
		bound += float64(a.MaxDrop[li][used-keep]) * q.Step() * nd

		seq := 0
		oi := 0
		lossy.VisitLevel(dec, data, l, interp.Linear, func(_ int, pred float64) float64 {
			v := pred + q.Dequantize(nb.Decode32(nbv[seq]))
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
	var buf bytes.Buffer
	w := func(v interface{}) { binary.Write(&buf, binary.LittleEndian, v) }
	w(uint32(magic))
	w(uint8(len(a.Shape)))
	for _, d := range a.Shape {
		w(uint32(d))
	}
	w(a.EB)
	w(uint8(a.Levels))
	w(uint32(len(a.Anchors)))
	for _, v := range a.Anchors {
		w(v)
	}
	for li := 0; li < a.Levels; li++ {
		w(uint32(a.Counts[li]))
		w(uint8(a.UsedPlanes[li]))
		for _, d := range a.MaxDrop[li] {
			w(d)
		}
		for _, b := range a.Blocks[li] {
			w(uint32(len(b)))
		}
		w(uint32(len(a.OutIdx[li])))
		for i := range a.OutIdx[li] {
			w(a.OutIdx[li][i])
			w(a.OutVal[li][i])
		}
	}
	for li := 0; li < a.Levels; li++ {
		for _, b := range a.Blocks[li] {
			buf.Write(b)
		}
	}
	return buf.Bytes()
}

// Unmarshal parses a serialized archive.
func Unmarshal(blob []byte) (*Archive, error) {
	r := bytes.NewReader(blob)
	rd := func(v interface{}) error { return binary.Read(r, binary.LittleEndian, v) }
	var m uint32
	if err := rd(&m); err != nil || m != magic {
		return nil, fmt.Errorf("mgard: bad magic")
	}
	var nd uint8
	if err := rd(&nd); err != nil {
		return nil, err
	}
	if nd == 0 || int(nd) > grid.MaxDims {
		return nil, fmt.Errorf("mgard: bad rank %d", nd)
	}
	a := &Archive{Shape: make(grid.Shape, nd)}
	for i := range a.Shape {
		var d uint32
		if err := rd(&d); err != nil {
			return nil, err
		}
		a.Shape[i] = int(d)
	}
	if err := rd(&a.EB); err != nil {
		return nil, err
	}
	var lv uint8
	if err := rd(&lv); err != nil {
		return nil, err
	}
	a.Levels = int(lv)
	var nAnchor uint32
	if err := rd(&nAnchor); err != nil {
		return nil, err
	}
	a.Anchors = make([]float64, nAnchor)
	for i := range a.Anchors {
		if err := rd(&a.Anchors[i]); err != nil {
			return nil, err
		}
	}
	a.Counts = make([]int, a.Levels)
	a.UsedPlanes = make([]int, a.Levels)
	a.MaxDrop = make([][]uint32, a.Levels)
	a.Blocks = make([][][]byte, a.Levels)
	a.OutIdx = make([][]uint32, a.Levels)
	a.OutVal = make([][]float64, a.Levels)
	blockSizes := make([][]uint32, a.Levels)
	for li := 0; li < a.Levels; li++ {
		var cnt uint32
		if err := rd(&cnt); err != nil {
			return nil, err
		}
		a.Counts[li] = int(cnt)
		var up uint8
		if err := rd(&up); err != nil {
			return nil, err
		}
		a.UsedPlanes[li] = int(up)
		a.MaxDrop[li] = make([]uint32, a.UsedPlanes[li]+1)
		for d := range a.MaxDrop[li] {
			if err := rd(&a.MaxDrop[li][d]); err != nil {
				return nil, err
			}
		}
		blockSizes[li] = make([]uint32, a.UsedPlanes[li])
		for p := range blockSizes[li] {
			if err := rd(&blockSizes[li][p]); err != nil {
				return nil, err
			}
		}
		var nOut uint32
		if err := rd(&nOut); err != nil {
			return nil, err
		}
		a.OutIdx[li] = make([]uint32, nOut)
		a.OutVal[li] = make([]float64, nOut)
		for i := range a.OutIdx[li] {
			if err := rd(&a.OutIdx[li][i]); err != nil {
				return nil, err
			}
			if err := rd(&a.OutVal[li][i]); err != nil {
				return nil, err
			}
		}
	}
	for li := 0; li < a.Levels; li++ {
		a.Blocks[li] = make([][]byte, a.UsedPlanes[li])
		for p := range a.Blocks[li] {
			b := make([]byte, blockSizes[li][p])
			if _, err := io.ReadFull(r, b); err != nil {
				return nil, err
			}
			a.Blocks[li][p] = b
		}
	}
	return a, nil
}
