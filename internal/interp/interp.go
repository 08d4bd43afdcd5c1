package interp

import (
	"fmt"

	"repro/internal/grid"
)

// Kind selects the interpolation formula.
type Kind uint8

const (
	// Linear predicts the midpoint average (x[-s]+x[+s])/2.
	Linear Kind = iota
	// Cubic predicts (-x[-3s]+9x[-s]+9x[+s]-x[+3s])/16 and falls back to
	// linear near boundaries.
	Cubic
)

func (k Kind) String() string {
	switch k {
	case Linear:
		return "linear"
	case Cubic:
		return "cubic"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Amplification returns the L∞ operator norm of one interpolation pass: the
// sum of absolute coefficient values (paper Theorem 1: 1 for linear, 1.25
// for cubic).
func (k Kind) Amplification() float64 {
	if k == Cubic {
		return 1.25
	}
	return 1
}

// Decomposition precomputes the level structure for one grid shape.
type Decomposition struct {
	shape   grid.Shape
	strides []int
	levels  int // L: levels are 1..L, coarse levels have larger indices
}

// NewDecomposition builds the level structure. The number of levels is the
// smallest L with 2^L >= max extent, so that every non-anchor point belongs
// to exactly one level.
func NewDecomposition(shape grid.Shape) (*Decomposition, error) {
	if err := shape.Validate(); err != nil {
		return nil, err
	}
	maxDim := 0
	for _, d := range shape {
		if d > maxDim {
			maxDim = d
		}
	}
	levels := 1
	for 1<<uint(levels) < maxDim {
		levels++
	}
	return &Decomposition{shape: shape.Clone(), strides: shape.Strides(), levels: levels}, nil
}

// NumLevels returns L, the number of interpolation levels.
func (d *Decomposition) NumLevels() int { return d.levels }

// Shape returns the grid shape the decomposition was built for.
func (d *Decomposition) Shape() grid.Shape { return d.shape }

// AnchorStride returns 2^L, the spacing of anchor points.
func (d *Decomposition) AnchorStride() int { return 1 << uint(d.levels) }

// Anchors returns the flat indices of anchor points in lexicographic order.
func (d *Decomposition) Anchors() []int {
	s := d.AnchorStride()
	var out []int
	d.iterate(coordSteps(d.shape, s), func(flat int) { out = append(out, flat) })
	return out
}

// LevelCount returns the number of points belonging to level l (1-based).
// The count is closed-form over the pass geometry — no walk happens.
func (d *Decomposition) LevelCount(l int) int {
	s := 1 << uint(l-1)
	count := 0
	for dim := 0; dim < len(d.shape); dim++ {
		passTotal := 1
		for j := 0; j < len(d.shape); j++ {
			passTotal *= passIterations(d.shape[j], s, j, dim)
		}
		count += passTotal
	}
	return count
}

type coordStep struct {
	start, step, limit int
}

func coordSteps(shape grid.Shape, step int) []coordStep {
	steps := make([]coordStep, len(shape))
	for i, d := range shape {
		steps[i] = coordStep{start: 0, step: step, limit: d}
	}
	return steps
}

// iterate walks the Cartesian product of the step ranges in lexicographic
// order, reporting flat indices. Only the (coarse, rare) anchor enumeration
// uses it; level walks go through the run engine.
func (d *Decomposition) iterate(steps []coordStep, fn func(flat int)) {
	st := d.strides
	switch len(steps) {
	case 1:
		s0 := steps[0]
		for c0 := s0.start; c0 < s0.limit; c0 += s0.step {
			fn(c0 * st[0])
		}
	case 2:
		s0, s1 := steps[0], steps[1]
		for c0 := s0.start; c0 < s0.limit; c0 += s0.step {
			base0 := c0 * st[0]
			for c1 := s1.start; c1 < s1.limit; c1 += s1.step {
				fn(base0 + c1*st[1])
			}
		}
	case 3:
		s0, s1, s2 := steps[0], steps[1], steps[2]
		for c0 := s0.start; c0 < s0.limit; c0 += s0.step {
			base0 := c0 * st[0]
			for c1 := s1.start; c1 < s1.limit; c1 += s1.step {
				base1 := base0 + c1*st[1]
				for c2 := s2.start; c2 < s2.limit; c2 += s2.step {
					fn(base1 + c2*st[2])
				}
			}
		}
	case 4:
		s0, s1, s2, s3 := steps[0], steps[1], steps[2], steps[3]
		for c0 := s0.start; c0 < s0.limit; c0 += s0.step {
			base0 := c0 * st[0]
			for c1 := s1.start; c1 < s1.limit; c1 += s1.step {
				base1 := base0 + c1*st[1]
				for c2 := s2.start; c2 < s2.limit; c2 += s2.step {
					base2 := base1 + c2*st[2]
					for c3 := s3.start; c3 < s3.limit; c3 += s3.step {
						fn(base2 + c3*st[3])
					}
				}
			}
		}
	default:
		panic("interp: unsupported rank")
	}
}
