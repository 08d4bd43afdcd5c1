// Package sperr implements SPERR-lite, a wavelet-based error-bounded
// compressor modeled on SPERR (Li et al., IPDPS 2023), which the paper
// includes in its speed comparison as the residual-progressive SPERR-R
// (§6.2.3, Fig 9).
//
// The pipeline mirrors SPERR's structure: a multi-level CDF 9/7 wavelet
// transform, uniform quantization of the coefficients, entropy coding, and
// — the step that makes the L∞ bound exact — an outlier correction pass
// that encodes every point whose reconstruction error still exceeds the
// bound. (SPERR-lite replaces SPECK set partitioning with Huffman+DEFLATE:
// the comparison needs SPERR's transform and its outlier pass, not its
// embedded coder.)
package sperr

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/baselines/huffman"
	"repro/internal/baselines/wavelet"
	"repro/internal/codec"
	"repro/internal/grid"
	"repro/internal/le"
	"repro/internal/quant"
)

const magic = 0x525053 // "SPR"

// Codec implements lossy.Codec.
type Codec struct{}

// New returns a SPERR-lite codec.
func New() *Codec { return &Codec{} }

// Name implements lossy.Codec.
func (c *Codec) Name() string { return "SPERR" }

// coefficient quantization uses a step finer than the target bound so that
// outliers (points the wavelet pass alone cannot bound) stay rare.
const stepDivisor = 4

// Compress implements lossy.Codec.
func (c *Codec) Compress(g *grid.Grid[float64], eb float64) ([]byte, error) {
	if !(eb > 0) || math.IsInf(eb, 0) {
		return nil, fmt.Errorf("sperr: error bound must be positive and finite, got %v", eb)
	}
	shape := g.Shape()
	levels := wavelet.MaxLevels(shape)

	// Forward transform on a copy.
	coef := g.Clone()
	wavelet.Transform(coef, levels)

	// Quantize coefficients.
	q := quant.New(eb / stepDivisor)
	cd := coef.Data()
	ks := make([]int32, len(cd))
	var wOutIdx []uint32 // coefficient-domain outliers (huge coefficients)
	var wOutVal []float64
	for i, v := range cd {
		k, ok := q.Quantize(v)
		if !ok {
			wOutIdx = append(wOutIdx, uint32(i))
			wOutVal = append(wOutVal, v)
			k = 0
		}
		ks[i] = k
	}

	// Reconstruct to find value-domain outliers that still violate eb.
	rec, err := reconstruct(ks, wOutIdx, wOutVal, shape, levels, q)
	if err != nil {
		return nil, err
	}
	gd := g.Data()
	rd := rec.Data()
	var oIdx []uint32
	var oVal []float64
	for i := range gd {
		d := gd[i] - rd[i]
		if math.IsNaN(d) || math.Abs(d) > eb {
			oIdx = append(oIdx, uint32(i))
			oVal = append(oVal, gd[i])
		}
	}

	huff := huffman.Encode(ks)
	payload := codec.EncodeBlock(huff)

	b := binary.LittleEndian.AppendUint32(nil, magic)
	b = le.AppendF64(b, eb)
	b = append(b, uint8(levels))
	b = appendOutliers(b, wOutIdx, wOutVal)
	b = appendOutliers(b, oIdx, oVal)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(huff)))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(payload)))
	return append(b, payload...), nil
}

// appendOutliers appends a count, then each (index u32, value f64) pair.
func appendOutliers(b []byte, idx []uint32, val []float64) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(idx)))
	for i := range idx {
		b = binary.LittleEndian.AppendUint32(b, idx[i])
		b = le.AppendF64(b, val[i])
	}
	return b
}

var errTruncated = errors.New("sperr: truncated blob")

// readOutliers reads what appendOutliers wrote.
func readOutliers(r *le.Reader) ([]uint32, []float64, error) {
	n := int(r.U32())
	if !r.Fits(n, 4+8) {
		return nil, nil, errTruncated
	}
	idx, val := make([]uint32, n), make([]float64, n)
	for i := range idx {
		idx[i], val[i] = r.U32(), r.F64()
	}
	return idx, val, nil
}

// Decompress implements lossy.Codec.
func (c *Codec) Decompress(blob []byte, shape grid.Shape) (*grid.Grid[float64], error) {
	r := le.NewReader(blob, errTruncated)
	if m := r.U32(); r.Err != nil || m != magic {
		return nil, fmt.Errorf("sperr: bad magic")
	}
	eb, levels := r.F64(), r.U8()
	wOutIdx, wOutVal, err := readOutliers(r)
	if err != nil {
		return nil, err
	}
	oIdx, oVal, err := readOutliers(r)
	if err != nil {
		return nil, err
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
	if len(ks) != shape.Len() {
		return nil, fmt.Errorf("sperr: %d coefficients for %d points", len(ks), shape.Len())
	}
	q := quant.New(eb / stepDivisor)
	g, err := reconstruct(ks, wOutIdx, wOutVal, shape, int(levels), q)
	if err != nil {
		return nil, err
	}
	gd := g.Data()
	for i := range oIdx {
		gd[oIdx[i]] = oVal[i]
	}
	return g, nil
}

// reconstruct dequantizes coefficients and applies the inverse transform.
func reconstruct(ks []int32, wOutIdx []uint32, wOutVal []float64, shape grid.Shape, levels int, q quant.Quantizer) (*grid.Grid[float64], error) {
	g, err := grid.New[float64](shape)
	if err != nil {
		return nil, err
	}
	gd := g.Data()
	if len(ks) != len(gd) {
		return nil, fmt.Errorf("sperr: coefficient count mismatch")
	}
	for i, k := range ks {
		gd[i] = q.Dequantize(k)
	}
	for i := range wOutIdx {
		gd[wOutIdx[i]] = wOutVal[i]
	}
	wavelet.Inverse(g, levels)
	return g, nil
}
