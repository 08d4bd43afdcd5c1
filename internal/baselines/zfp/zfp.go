// Package zfp implements ZFP-lite, a from-scratch reimplementation of the
// fixed-accuracy mode of Lindstrom's ZFP, the paper's transform-based
// baseline (§6.1.3). The pipeline follows the published design:
//
//  1. partition the field into 4^d blocks (padded at the edges),
//  2. per block, align values to a common exponent in 64-bit fixed point,
//  3. decorrelate with ZFP's integer lifting transform along each dimension,
//  4. reorder coefficients by total degree, convert to negabinary,
//  5. truncate below the accuracy threshold and entropy-code.
//
// The stream layout is simplified relative to real ZFP (varint coefficients
// + DEFLATE instead of embedded group-tested bitplanes), which preserves the
// properties the paper's comparison relies on: ZFP is the fastest compressor
// and its ratio trails the interpolation-based ones.
package zfp

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/codec"
	"repro/internal/grid"
	"repro/internal/le"
	"repro/internal/nb"
)

const magic = 0x50465A // "ZFP"

// blockSide is ZFP's fixed block extent per dimension.
const blockSide = 4

// fracBits is the fixed-point precision: values are scaled so the block
// maximum sits just below 2^fracBits. Headroom above fracBits absorbs
// transform growth.
const fracBits = 48

// Codec implements lossy.Codec.
type Codec struct{}

// New returns a ZFP-lite codec.
func New() *Codec { return &Codec{} }

// Name implements lossy.Codec.
func (c *Codec) Name() string { return "ZFP" }

// ampFactor bounds the L∞ growth of the inverse transform per dimension:
// the largest absolute row sum of the inverse matrix 1/4·(4 6 -4 -1; ...)
// is 15/4.
const ampFactor = 15.0 / 4.0

// Compress implements lossy.Codec.
func (c *Codec) Compress(g *grid.Grid[float64], eb float64) ([]byte, error) {
	if !(eb > 0) || math.IsInf(eb, 0) {
		return nil, fmt.Errorf("zfp: error bound must be positive and finite, got %v", eb)
	}
	shape := g.Shape()
	nd := len(shape)
	blockLen := 1
	for i := 0; i < nd; i++ {
		blockLen *= blockSide
	}
	// Per-coefficient truncation tolerance that keeps the block-wise L∞
	// reconstruction error within eb after inverse-transform amplification.
	tol := eb / (2 * math.Pow(ampFactor, float64(nd)))

	var body bytes.Buffer
	var scratch [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) {
		n := binary.PutUvarint(scratch[:], v)
		body.Write(scratch[:n])
	}

	blockVals := make([]float64, blockLen)
	fixed := make([]int64, blockLen)
	forEachBlock(shape, func(origin []int) {
		gatherBlock(g, origin, blockVals)
		// Common scale: largest magnitude in the block.
		maxMag := 0.0
		bad := false
		for _, v := range blockVals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				bad = true
			}
			if a := math.Abs(v); a > maxMag {
				maxMag = a
			}
		}
		if bad {
			// Rare escape: store the block raw. Mark with exponent flag.
			putUvarint(rawBlockMarker)
			for _, v := range blockVals {
				var b [8]byte
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
				body.Write(b[:])
			}
			return
		}
		if maxMag == 0 {
			putUvarint(zeroBlockMarker)
			return
		}
		// Fixed-point scale 2^(fracBits - exp) with exp = ceil(log2 maxMag).
		exp := int(math.Ceil(math.Log2(maxMag)))
		scale := math.Ldexp(1, fracBits-exp)
		for i, v := range blockVals {
			fixed[i] = int64(math.Round(v * scale))
		}
		forwardTransform(fixed, nd)
		// Truncation threshold in fixed-point units.
		thr := tol * scale
		shift := 0
		for math.Ldexp(1, shift) <= thr {
			shift++
		}
		if shift > 0 {
			shift-- // 2^shift <= thr: dropping `shift` low bits errs < thr
		}
		putUvarint(uint64(exp - expBias)) // biased exponent, below the markers
		putUvarint(uint64(shift))
		for _, i := range degreeOrder(nd) {
			u := nb.Encode(fixed[i]) >> uint(shift)
			putUvarint(u)
		}
	})

	payload := codec.EncodeBlock(body.Bytes())

	b := binary.LittleEndian.AppendUint32(nil, magic)
	b = le.AppendF64(b, eb)
	b = binary.LittleEndian.AppendUint32(b, uint32(body.Len()))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(payload)))
	return append(b, payload...), nil
}

// Exponent encoding: biased so ordinary exponents never collide with the
// markers below.
const (
	expBias         = -20000
	zeroBlockMarker = 60000
	rawBlockMarker  = 60001
)

var errTruncated = errors.New("zfp: truncated blob")

// Decompress implements lossy.Codec.
func (c *Codec) Decompress(blob []byte, shape grid.Shape) (*grid.Grid[float64], error) {
	r := le.NewReader(blob, errTruncated)
	if m := r.U32(); r.Err != nil || m != magic {
		return nil, fmt.Errorf("zfp: bad magic")
	}
	r.F64() // the error bound: decoding does not need it
	bodyLen := r.U32()
	payload := r.Bytes(int(r.U32()))
	if r.Err != nil {
		return nil, r.Err
	}
	bodyBytes, err := codec.DecodeBlock(payload, int(bodyLen))
	if err != nil {
		return nil, err
	}
	body := bytes.NewReader(bodyBytes)

	g, err := grid.New[float64](shape)
	if err != nil {
		return nil, err
	}
	nd := len(shape)
	blockLen := 1
	for i := 0; i < nd; i++ {
		blockLen *= blockSide
	}
	blockVals := make([]float64, blockLen)
	fixed := make([]int64, blockLen)
	var decodeErr error
	forEachBlock(shape, func(origin []int) {
		if decodeErr != nil {
			return
		}
		tag, err := binary.ReadUvarint(body)
		if err != nil {
			decodeErr = err
			return
		}
		switch tag {
		case zeroBlockMarker:
			for i := range blockVals {
				blockVals[i] = 0
			}
		case rawBlockMarker:
			var b [8]byte
			for i := range blockVals {
				if _, err := io.ReadFull(body, b[:]); err != nil {
					decodeErr = err
					return
				}
				blockVals[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
			}
		default:
			exp := int(tag) + expBias
			shiftU, err := binary.ReadUvarint(body)
			if err != nil {
				decodeErr = err
				return
			}
			shift := int(shiftU)
			for _, i := range degreeOrder(nd) {
				u, err := binary.ReadUvarint(body)
				if err != nil {
					decodeErr = err
					return
				}
				fixed[i] = nb.Decode(u << uint(shift))
			}
			inverseTransform(fixed, nd)
			scale := math.Ldexp(1, fracBits-exp)
			for i := range blockVals {
				blockVals[i] = float64(fixed[i]) / scale
			}
		}
		scatterBlock(g, origin, blockVals)
	})
	if decodeErr != nil {
		return nil, fmt.Errorf("zfp: decode: %w", decodeErr)
	}
	return g, nil
}

// forEachBlock visits every 4^d block origin in row-major order.
func forEachBlock(shape grid.Shape, fn func(origin []int)) {
	nd := len(shape)
	origin := make([]int, nd)
	var rec func(d int)
	rec = func(d int) {
		if d == nd {
			fn(origin)
			return
		}
		for o := 0; o < shape[d]; o += blockSide {
			origin[d] = o
			rec(d + 1)
		}
	}
	rec(0)
}

// gatherBlock copies a block into vals, clamping coordinates at the edges
// (ZFP pads partial blocks by replicating the last layer, which keeps the
// transform smooth).
func gatherBlock(g *grid.Grid[float64], origin []int, vals []float64) {
	shape := g.Shape()
	nd := len(shape)
	idx := make([]int, nd)
	for i := range vals {
		rem := i
		for d := nd - 1; d >= 0; d-- {
			c := origin[d] + rem%blockSide
			rem /= blockSide
			if c >= shape[d] {
				c = shape[d] - 1
			}
			idx[d] = c
		}
		vals[i] = g.At(idx...)
	}
}

// scatterBlock writes a block back, skipping padded cells.
func scatterBlock(g *grid.Grid[float64], origin []int, vals []float64) {
	shape := g.Shape()
	nd := len(shape)
	idx := make([]int, nd)
	for i := range vals {
		rem := i
		ok := true
		for d := nd - 1; d >= 0; d-- {
			c := origin[d] + rem%blockSide
			rem /= blockSide
			if c >= shape[d] {
				ok = false
				break
			}
			idx[d] = c
		}
		if ok {
			g.Set(vals[i], idx...)
		}
	}
}

// fwdLift is ZFP's forward integer lifting of a 4-vector (the published
// non-orthogonal transform 1/16·(4 4 4 4; 5 1 -1 -5; -4 4 4 -4; -2 6 -6 2)).
func fwdLift(p []int64, s int) {
	x, y, z, w := p[0], p[s], p[2*s], p[3*s]
	x += w
	x >>= 1
	w -= x
	z += y
	z >>= 1
	y -= z
	x += z
	x >>= 1
	z -= x
	w += y >> 1
	y -= w >> 1
	p[0], p[s], p[2*s], p[3*s] = x, y, z, w
}

// invLift inverts fwdLift step by step. The >>1 stages of the forward
// transform drop one bit each, so inversion is exact up to ±1 fixed-point
// unit per stage — the "nearly orthogonal" round-off inherent to ZFP's
// integer transform, negligible at 48 fractional bits.
func invLift(p []int64, s int) {
	x, y, z, w := p[0], p[s], p[2*s], p[3*s]
	// Undo: w += y>>1 ; y -= w>>1.
	y += w >> 1
	w -= y >> 1
	// Undo: x += z ; x >>= 1 ; z -= x.
	z += x
	x <<= 1
	x -= z
	// Undo: z += y ; z >>= 1 ; y -= z.
	y += z
	z <<= 1
	z -= y
	// Undo: x += w ; x >>= 1 ; w -= x.
	w += x
	x <<= 1
	x -= w
	p[0], p[s], p[2*s], p[3*s] = x, y, z, w
}

// forwardTransform applies fwdLift along every dimension of a 4^d block,
// innermost (contiguous) dimension first.
func forwardTransform(block []int64, nd int) {
	stride := 1
	for d := nd - 1; d >= 0; d-- {
		liftDim(block, stride, fwdLift)
		stride *= blockSide
	}
}

// inverseTransform applies invLift along the dimensions in reverse order.
func inverseTransform(block []int64, nd int) {
	stride := 1
	for d := nd - 1; d >= 0; d-- {
		stride *= blockSide
	}
	for d := 0; d < nd; d++ {
		stride /= blockSide
		liftDim(block, stride, invLift)
	}
}

// liftDim applies a 4-vector lifting to every line of the block along the
// dimension with the given stride.
func liftDim(block []int64, stride int, lift func([]int64, int)) {
	outer := len(block) / (blockSide * stride)
	for o := 0; o < outer; o++ {
		base := (o/stride)*(blockSide*stride) + o%stride
		lift(block[base:], stride)
	}
}

// degreeOrder returns the coefficient visit order sorted by total degree
// (sum of per-dimension indices), ZFP's zigzag generalization: low-degree
// (high-energy) coefficients first, which groups large magnitudes for the
// entropy coder.
func degreeOrder(nd int) []int {
	if o, ok := degreeOrders[nd]; ok {
		return o
	}
	n := 1
	for i := 0; i < nd; i++ {
		n *= blockSide
	}
	type entry struct{ deg, idx int }
	entries := make([]entry, n)
	for i := 0; i < n; i++ {
		deg := 0
		rem := i
		for d := 0; d < nd; d++ {
			deg += rem % blockSide
			rem /= blockSide
		}
		entries[i] = entry{deg, i}
	}
	// Stable counting sort by degree.
	maxDeg := nd*(blockSide-1) + 1
	buckets := make([][]int, maxDeg)
	for _, e := range entries {
		buckets[e.deg] = append(buckets[e.deg], e.idx)
	}
	order := make([]int, 0, n)
	for _, b := range buckets {
		order = append(order, b...)
	}
	degreeOrders[nd] = order
	return order
}

var degreeOrders = map[int][]int{}
