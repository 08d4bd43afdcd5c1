// Package residual implements the two straightforward multi-fidelity
// strategies the paper compares against (§6.1.3):
//
//   - Residual progressive ("-R" variants, SZ3-R / ZFP-R / SPERR-R): compress
//     with a large bound, then repeatedly compress the residual error with a
//     smaller bound. Retrieval at bound E must decompress EVERY pass down to
//     the first bound <= E and sum them — multiple decompression passes per
//     request, the cost the paper's Figure 9 quantifies.
//
//   - Multi-fidelity ("-M", SZ3-M): compress the input independently at each
//     bound and store all outputs. A retrieval decompresses exactly one blob,
//     but nothing is shared between fidelity levels, so the total archive is
//     huge and coarse data cannot be reused for finer requests.
//
// Both wrappers work with any lossy.Codec.
package residual

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/baselines/lossy"
	"repro/internal/grid"
)

// DefaultLadder builds the paper's bound ladder: nine bounds from 2^16·eb
// down to eb in factor-4 steps (§6.1.3: 2^16 eb, 2^14 eb, ..., 2^2 eb, eb).
func DefaultLadder(eb float64) []float64 {
	bounds := make([]float64, 0, 9)
	for k := 16; k >= 0; k -= 2 {
		bounds = append(bounds, eb*math.Pow(2, float64(k)))
	}
	return bounds
}

// Ladder with n rungs from 2^16·eb down to eb, geometrically spaced —
// used by the Figure 9 sweep over residual counts.
func Ladder(eb float64, n int) []float64 {
	if n <= 1 {
		return []float64{eb}
	}
	bounds := make([]float64, n)
	ratio := math.Pow(2, 16/float64(n-1))
	b := eb * math.Pow(2, 16)
	for i := 0; i < n; i++ {
		bounds[i] = b
		b /= ratio
	}
	bounds[n-1] = eb
	return bounds
}

// Archive is a serialized ladder of compressed passes. The same container
// serves both strategies; Residual records whether pass i holds residuals
// (to be summed) or independent reconstructions (to be selected).
type Archive struct {
	Residual bool
	Shape    grid.Shape
	Bounds   []float64 // descending
	Blobs    [][]byte
}

// CompressResidual builds a residual-progressive archive: blob 0 encodes the
// data at Bounds[0]; blob i>0 encodes the reconstruction error left after
// pass i-1, at Bounds[i]. Total decompression across all passes satisfies
// the final bound.
func CompressResidual(c lossy.Codec, g *grid.Grid[float64], bounds []float64) (*Archive, error) {
	if err := validateBounds(bounds); err != nil {
		return nil, err
	}
	a := &Archive{Residual: true, Shape: g.Shape().Clone(), Bounds: append([]float64(nil), bounds...)}
	target := g.Clone() // what remains to be encoded
	for _, eb := range bounds {
		blob, err := c.Compress(target, eb)
		if err != nil {
			return nil, fmt.Errorf("residual: pass at eb=%g: %w", eb, err)
		}
		a.Blobs = append(a.Blobs, blob)
		rec, err := c.Decompress(blob, g.Shape())
		if err != nil {
			return nil, err
		}
		td, rd := target.Data(), rec.Data()
		for i := range td {
			td[i] -= rd[i]
		}
	}
	return a, nil
}

// CompressMulti builds a multi-fidelity (SZ3-M style) archive: one
// independent compression per bound.
func CompressMulti(c lossy.Codec, g *grid.Grid[float64], bounds []float64) (*Archive, error) {
	if err := validateBounds(bounds); err != nil {
		return nil, err
	}
	a := &Archive{Shape: g.Shape().Clone(), Bounds: append([]float64(nil), bounds...)}
	for _, eb := range bounds {
		blob, err := c.Compress(g, eb)
		if err != nil {
			return nil, fmt.Errorf("residual: multi pass at eb=%g: %w", eb, err)
		}
		a.Blobs = append(a.Blobs, blob)
	}
	return a, nil
}

func validateBounds(bounds []float64) error {
	if len(bounds) == 0 {
		return fmt.Errorf("residual: empty bound ladder")
	}
	for i, b := range bounds {
		if !(b > 0) {
			return fmt.Errorf("residual: bound %d is %v", i, b)
		}
		if i > 0 && b >= bounds[i-1] {
			return fmt.Errorf("residual: bounds must descend, got %v after %v", b, bounds[i-1])
		}
	}
	return nil
}

// TotalSize returns the archive payload size across all passes.
func (a *Archive) TotalSize() int64 {
	var n int64
	for _, b := range a.Blobs {
		n += int64(len(b))
	}
	return n
}

// Retrieval describes what one multi-fidelity request costed.
type Retrieval struct {
	Data *grid.Grid[float64]
	// Bound is the error bound the loaded passes guarantee.
	Bound float64
	// LoadedBytes counts the compressed bytes read for this request.
	LoadedBytes int64
	// Passes is how many decompression executions the request needed —
	// the overhead the paper's workflow comparison highlights.
	Passes int
}

// RetrieveErrorBound serves a request with target bound E >= Bounds[len-1].
// For residual archives, all passes with bound >= the selected rung are
// decompressed and summed (multiple passes); for multi-fidelity archives the
// single matching blob is decompressed.
func (a *Archive) RetrieveErrorBound(c lossy.Codec, e float64) (*Retrieval, error) {
	sel := -1
	for i, b := range a.Bounds {
		if b <= e {
			sel = i
			break
		}
	}
	if sel < 0 {
		return nil, fmt.Errorf("residual: bound %g tighter than final rung %g", e, a.Bounds[len(a.Bounds)-1])
	}
	return a.retrieveRung(c, sel)
}

// RetrieveBitrate serves a fixed-size request: the finest rung whose
// cumulative (residual) or individual (multi) size fits in maxBytes. The
// paper applies exactly this manual anchor selection to the baselines.
func (a *Archive) RetrieveBitrate(c lossy.Codec, maxBytes int64) (*Retrieval, error) {
	sel := -1
	var cum int64
	for i, blob := range a.Blobs {
		if a.Residual {
			cum += int64(len(blob))
			if cum <= maxBytes {
				sel = i
			}
		} else if int64(len(blob)) <= maxBytes {
			sel = i
		}
	}
	if sel < 0 {
		return nil, fmt.Errorf("residual: budget %d bytes below the coarsest rung", maxBytes)
	}
	return a.retrieveRung(c, sel)
}

func (a *Archive) retrieveRung(c lossy.Codec, rung int) (*Retrieval, error) {
	if a.Residual {
		out, err := grid.New[float64](a.Shape)
		if err != nil {
			return nil, err
		}
		ret := &Retrieval{Data: out, Bound: a.Bounds[rung]}
		od := out.Data()
		for i := 0; i <= rung; i++ {
			rec, err := c.Decompress(a.Blobs[i], a.Shape)
			if err != nil {
				return nil, fmt.Errorf("residual: pass %d: %w", i, err)
			}
			rd := rec.Data()
			for j := range od {
				od[j] += rd[j]
			}
			ret.LoadedBytes += int64(len(a.Blobs[i]))
			ret.Passes++
		}
		return ret, nil
	}
	rec, err := c.Decompress(a.Blobs[rung], a.Shape)
	if err != nil {
		return nil, err
	}
	return &Retrieval{
		Data:        rec,
		Bound:       a.Bounds[rung],
		LoadedBytes: int64(len(a.Blobs[rung])),
		Passes:      1,
	}, nil
}

// Marshal serializes the archive.
func (a *Archive) Marshal() []byte {
	var buf bytes.Buffer
	w := func(v interface{}) { binary.Write(&buf, binary.LittleEndian, v) }
	if a.Residual {
		w(uint8(1))
	} else {
		w(uint8(0))
	}
	w(uint8(len(a.Shape)))
	for _, d := range a.Shape {
		w(uint32(d))
	}
	w(uint32(len(a.Bounds)))
	for i := range a.Bounds {
		w(a.Bounds[i])
		w(uint64(len(a.Blobs[i])))
	}
	for _, b := range a.Blobs {
		buf.Write(b)
	}
	return buf.Bytes()
}

// Unmarshal parses a serialized archive.
func Unmarshal(blob []byte) (*Archive, error) {
	r := bytes.NewReader(blob)
	rd := func(v interface{}) error { return binary.Read(r, binary.LittleEndian, v) }
	var resid, nd uint8
	if err := rd(&resid); err != nil {
		return nil, err
	}
	if err := rd(&nd); err != nil {
		return nil, err
	}
	if nd == 0 || int(nd) > grid.MaxDims {
		return nil, fmt.Errorf("residual: bad rank %d", nd)
	}
	a := &Archive{Residual: resid == 1, Shape: make(grid.Shape, nd)}
	for i := range a.Shape {
		var d uint32
		if err := rd(&d); err != nil {
			return nil, err
		}
		a.Shape[i] = int(d)
	}
	var nb uint32
	if err := rd(&nb); err != nil {
		return nil, err
	}
	sizes := make([]uint64, nb)
	a.Bounds = make([]float64, nb)
	for i := range a.Bounds {
		if err := rd(&a.Bounds[i]); err != nil {
			return nil, err
		}
		if err := rd(&sizes[i]); err != nil {
			return nil, err
		}
	}
	for _, sz := range sizes {
		b := make([]byte, sz)
		if _, err := io.ReadFull(r, b); err != nil {
			return nil, err
		}
		a.Blobs = append(a.Blobs, b)
	}
	return a, nil
}
