// Package sz3 implements SZ3-lite, a faithful reimplementation of the SZ3
// compression pipeline the paper uses as its leading non-progressive
// baseline (§6.1.3): multi-level interpolation prediction, linear-scale
// quantization, Huffman coding of the quantization indices, and a final
// LZ pattern-extraction pass (DEFLATE where SZ3 uses zstd: the Go standard
// library has no zstd, and both are LZ77-family coders; internal/codec).
//
// SZ3-lite shares the interpolation engine with IPComp — exactly the
// situation in the paper, where both build on the same predictor and differ
// in the encoding stage (Huffman vs. progressive bitplanes).
package sz3

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/baselines/huffman"
	"repro/internal/baselines/lossy"
	"repro/internal/codec"
	"repro/internal/grid"
	"repro/internal/interp"
	"repro/internal/le"
	"repro/internal/quant"
)

const magic = 0x335A53 // "SZ3"

// Codec compresses with cubic interpolation by default.
type Codec struct {
	// Kind selects the interpolation formula; zero value is linear, so use
	// New for the cubic default.
	Kind interp.Kind
}

// New returns an SZ3-lite codec with the standard cubic interpolation.
func New() *Codec { return &Codec{Kind: interp.Cubic} }

// Name implements lossy.Codec.
func (c *Codec) Name() string { return "SZ3" }

// Compress implements lossy.Codec.
func (c *Codec) Compress(g *grid.Grid[float64], eb float64) ([]byte, error) {
	if !(eb > 0) || math.IsInf(eb, 0) {
		return nil, fmt.Errorf("sz3: error bound must be positive and finite, got %v", eb)
	}
	dec, err := interp.NewDecomposition(g.Shape())
	if err != nil {
		return nil, err
	}
	q := quant.New(eb)
	work := make([]float64, g.Len())
	copy(work, g.Data())

	anchors := dec.Anchors()
	anchorVals := make([]float64, len(anchors))
	for i, idx := range anchors {
		anchorVals[i] = work[idx]
	}

	// All levels' quantization indices concatenated in visit order —
	// SZ3 Huffman-codes them as one stream.
	ks := make([]int32, 0, g.Len())
	var outIdx []uint32
	var outVal []float64
	seq := uint32(0)
	for l := dec.NumLevels(); l >= 1; l-- {
		lossy.VisitLevel(dec, work, l, c.Kind, func(idx int, pred float64) float64 {
			k, recon, ok := q.QuantizeReconstruct(work[idx], pred)
			if !ok {
				outIdx = append(outIdx, seq)
				outVal = append(outVal, work[idx])
				k, recon = 0, work[idx]
			}
			ks = append(ks, k)
			seq++
			return recon
		})
	}

	huff := huffman.Encode(ks)
	payload := codec.EncodeBlock(huff) // DEFLATE after Huffman, as SZ3+zstd

	b := binary.LittleEndian.AppendUint32(nil, magic)
	b = append(b, uint8(c.Kind))
	b = le.AppendF64(b, eb)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(anchorVals)))
	for _, a := range anchorVals {
		b = le.AppendF64(b, a)
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(outIdx)))
	for i := range outIdx {
		b = binary.LittleEndian.AppendUint32(b, outIdx[i])
		b = le.AppendF64(b, outVal[i])
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(huff)))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(payload)))
	return append(b, payload...), nil
}

var errTruncated = errors.New("sz3: truncated blob")

// Decompress implements lossy.Codec.
func (c *Codec) Decompress(blob []byte, shape grid.Shape) (*grid.Grid[float64], error) {
	r := le.NewReader(blob, errTruncated)
	if m := r.U32(); r.Err != nil || m != magic {
		return nil, fmt.Errorf("sz3: bad magic")
	}
	kind, eb := r.U8(), r.F64()
	nAnchor := int(r.U32())
	if !r.Fits(nAnchor, 8) {
		return nil, errTruncated
	}
	anchorVals := make([]float64, nAnchor)
	for i := range anchorVals {
		anchorVals[i] = r.F64()
	}
	nOut := int(r.U32())
	if !r.Fits(nOut, 4+8) {
		return nil, errTruncated
	}
	outIdx := make([]uint32, nOut)
	outVal := make([]float64, nOut)
	for i := range outIdx {
		outIdx[i], outVal[i] = r.U32(), r.F64()
	}
	huffLen := r.U32()
	payload := r.Bytes(int(r.U32()))
	if r.Err != nil {
		return nil, r.Err
	}
	huff, err := codec.DecodeBlock(payload, int(huffLen))
	if err != nil {
		return nil, err
	}
	ks, err := huffman.Decode(huff)
	if err != nil {
		return nil, err
	}

	dec, err := interp.NewDecomposition(shape)
	if err != nil {
		return nil, err
	}
	g, err := grid.New[float64](shape)
	if err != nil {
		return nil, err
	}
	data := g.Data()
	anchors := dec.Anchors()
	if len(anchors) != len(anchorVals) {
		return nil, fmt.Errorf("sz3: anchor count mismatch")
	}
	for i, idx := range anchors {
		data[idx] = anchorVals[i]
	}
	q := quant.New(eb)
	pos := 0
	oi := 0
	if len(ks) != shape.Len()-len(anchors) {
		return nil, fmt.Errorf("sz3: %d indices for %d points", len(ks), shape.Len()-len(anchors))
	}
	for l := dec.NumLevels(); l >= 1; l-- {
		lossy.VisitLevel(dec, data, l, interp.Kind(kind), func(_ int, pred float64) float64 {
			v := pred + q.Dequantize(ks[pos])
			if oi < len(outIdx) && outIdx[oi] == uint32(pos) {
				v = outVal[oi]
				oi++
			}
			pos++
			return v
		})
	}
	return g, nil
}
