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
	"fmt"
	"math"

	"repro/internal/baselines/lossy"
	"repro/internal/grid"
)

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

// Archive is a ladder of compressed passes. The same container serves
// both strategies; Residual records whether pass i holds residuals (to be
// summed) or independent reconstructions (to be selected).
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
