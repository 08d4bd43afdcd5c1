// Package grid provides the N-dimensional array substrate used by every
// compressor in this repository. A Grid[T] is a dense row-major array of
// float32 or float64 values with an explicit shape; it supports up to four
// dimensions, which covers all datasets in the IPComp paper (they are all
// 3D) plus the 1D/2D cases exercised by tests and examples.
package grid

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// MaxDims is the maximum number of dimensions supported by Grid.
const MaxDims = 4

// Scalar is the set of element types a Grid can hold. Scientific datasets
// are overwhelmingly single-precision; float64 remains the default for the
// paper's synthetic fields and the sibling reference compressors.
//
// The constraint is deliberately exact (no ~): the pipeline's runtime
// dispatch — pool routing, archive scalar tags, result-slice selection —
// switches on the dynamic types []float32/[]float64, so a defined type
// like `type Kelvin float32` must be a compile error here rather than a
// misclassified width at runtime.
type Scalar interface {
	float32 | float64
}

// Shape describes the extent of a Grid along each dimension, outermost
// (slowest-varying) first, matching C/row-major order.
type Shape []int

// Validate reports whether the shape has 1..MaxDims strictly positive
// extents whose product, Len, fits an int.
func (s Shape) Validate() error {
	if len(s) == 0 {
		return errors.New("grid: empty shape")
	}
	if len(s) > MaxDims {
		return fmt.Errorf("grid: %d dimensions exceeds maximum %d", len(s), MaxDims)
	}
	n := 1
	for i, d := range s {
		if d <= 0 {
			return fmt.Errorf("grid: dimension %d has non-positive extent %d", i, d)
		}
		if n > math.MaxInt/d {
			return fmt.Errorf("grid: shape %v has more than %d elements", []int(s), math.MaxInt)
		}
		n *= d
	}
	return nil
}

// Len returns the total number of elements, the product of all extents.
func (s Shape) Len() int {
	n := 1
	for _, d := range s {
		n *= d
	}
	return n
}

// Clone returns an independent copy of the shape.
func (s Shape) Clone() Shape {
	out := make(Shape, len(s))
	copy(out, s)
	return out
}

// Equal reports whether two shapes have identical rank and extents.
func (s Shape) Equal(o Shape) bool {
	if len(s) != len(o) {
		return false
	}
	for i := range s {
		if s[i] != o[i] {
			return false
		}
	}
	return true
}

// Strides returns the row-major element stride of each dimension.
func (s Shape) Strides() []int {
	st := make([]int, len(s))
	acc := 1
	for i := len(s) - 1; i >= 0; i-- {
		st[i] = acc
		acc *= s[i]
	}
	return st
}

func (s Shape) String() string {
	out := ""
	for i, d := range s {
		if i > 0 {
			out += "x"
		}
		out += fmt.Sprint(d)
	}
	return out
}

// ParseShape is the inverse of String: it reads extents joined by "x",
// e.g. "64x96x96", and accepts only a shape that Validates. The text may
// come from a request, so an error quotes at most 64 runes of it.
func ParseShape(s string) (Shape, error) {
	var out Shape
	for _, part := range strings.Split(s, "x") {
		v, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("bad extents %.64q (want e.g. 64x96x96)", s)
		}
		out = append(out, v)
	}
	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("bad extents %.64q: %w", s, err)
	}
	return out, nil
}

// Grid is a dense row-major N-dimensional array of Scalar values.
type Grid[T Scalar] struct {
	shape   Shape
	strides []int
	data    []T
}

// New allocates a zero-filled grid with the given shape.
func New[T Scalar](shape Shape) (*Grid[T], error) {
	if err := shape.Validate(); err != nil {
		return nil, err
	}
	return &Grid[T]{
		shape:   shape.Clone(),
		strides: shape.Strides(),
		data:    make([]T, shape.Len()),
	}, nil
}

// FromSlice wraps an existing flat slice as a grid without copying.
// The slice length must equal shape.Len().
func FromSlice[T Scalar](data []T, shape Shape) (*Grid[T], error) {
	if err := shape.Validate(); err != nil {
		return nil, err
	}
	if len(data) != shape.Len() {
		return nil, fmt.Errorf("grid: data length %d does not match shape %v (%d elements)",
			len(data), shape, shape.Len())
	}
	return &Grid[T]{shape: shape.Clone(), strides: shape.Strides(), data: data}, nil
}

// MustNew is New but panics on error; intended for tests and examples where
// the shape is a compile-time constant.
func MustNew[T Scalar](shape Shape) *Grid[T] {
	g, err := New[T](shape)
	if err != nil {
		panic(err)
	}
	return g
}

// Shape returns the grid's shape. The caller must not mutate it.
func (g *Grid[T]) Shape() Shape { return g.shape }

// NDims returns the number of dimensions.
func (g *Grid[T]) NDims() int { return len(g.shape) }

// Len returns the total number of elements.
func (g *Grid[T]) Len() int { return len(g.data) }

// Data returns the backing flat slice in row-major order.
func (g *Grid[T]) Data() []T { return g.data }

// Strides returns the element stride of each dimension.
func (g *Grid[T]) Strides() []int { return g.strides }

// Offset converts multi-dimensional indices to a flat offset. Indices must
// have the same rank as the grid; bounds are checked only by the slice
// access that follows.
func (g *Grid[T]) Offset(idx ...int) int {
	off := 0
	for i, x := range idx {
		off += x * g.strides[i]
	}
	return off
}

// At returns the value at the given multi-dimensional index.
func (g *Grid[T]) At(idx ...int) T { return g.data[g.Offset(idx...)] }

// Set stores a value at the given multi-dimensional index.
func (g *Grid[T]) Set(v T, idx ...int) { g.data[g.Offset(idx...)] = v }

// Clone returns a deep copy of the grid.
func (g *Grid[T]) Clone() *Grid[T] {
	data := make([]T, len(g.data))
	copy(data, g.data)
	out, _ := FromSlice(data, g.shape)
	return out
}

// Range returns the minimum and maximum values of the grid, ignoring NaN
// wherever it sits (see CopyRange). A grid with no value but NaN returns
// zeros.
func (g *Grid[T]) Range() (lo, hi T) { return CopyRange(nil, g.data) }

// ValueRange returns hi-lo, the span used to derive relative error bounds.
// The subtraction is carried out in float64 regardless of T so bound
// arithmetic stays exact for float32 grids. NaN values are ignored, and a
// grid with no finite value, or whose finite values are all equal with no
// infinity beside them, spans 0: callers treat it as a constant field. A
// grid holding finite values and an infinity spans +Inf.
func (g *Grid[T]) ValueRange() float64 {
	lo, hi := g.Range()
	if lo == hi || math.IsInf(float64(hi)-float64(lo), 1) && !hasFinite(g.data) {
		return 0
	}
	return float64(hi) - float64(lo)
}

// hasFinite reports whether s holds a value that is neither NaN nor an
// infinity. ValueRange asks it only of a grid spanning −Inf to +Inf.
func hasFinite[T Scalar](s []T) bool {
	for _, v := range s {
		if !math.IsInf(float64(v), 0) && v == v {
			return true
		}
	}
	return false
}

// WidenSlice converts a slice to float64 into a fresh slice (lossless for
// float32 inputs; a float64 input still copies, so mutations never alias).
func WidenSlice[T Scalar](src []T) []float64 {
	out := make([]float64, len(src))
	for i, v := range src {
		out[i] = float64(v)
	}
	return out
}

// NarrowSlice converts a slice to float32 into a fresh slice, rounding
// float64 inputs.
func NarrowSlice[T Scalar](src []T) []float32 {
	out := make([]float32, len(src))
	for i, v := range src {
		out[i] = float32(v)
	}
	return out
}

// Narrow converts the grid to float32, copying (and rounding) the data.
func Narrow[T Scalar](g *Grid[T]) *Grid[float32] {
	out, _ := FromSlice(NarrowSlice(g.data), g.shape)
	return out
}
