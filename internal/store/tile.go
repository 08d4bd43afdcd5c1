package store

import (
	"fmt"

	"repro/internal/grid"
)

// DefaultChunkEdge is the default tile extent along every dimension; the
// default 3D chunk is 64³ = 262144 elements, large enough that every chunk
// clears the core compressor's progressive threshold yet small enough that
// a region query touches only the tiles it overlaps.
const DefaultChunkEdge = 64

// tiling partitions a dataset shape into a regular grid of fixed-size
// chunks laid out in row-major chunk order; chunks on the high edge of a
// dimension are clipped to the dataset boundary.
type tiling struct {
	shape  grid.Shape // dataset shape
	chunk  grid.Shape // nominal chunk shape, same rank as shape
	counts []int      // chunk count along each dimension
	n      int        // total chunk count
}

func newTiling(shape, chunk grid.Shape) (*tiling, error) {
	if err := shape.Validate(); err != nil {
		return nil, err
	}
	if len(chunk) != len(shape) {
		return nil, fmt.Errorf("store: chunk shape %v does not match dataset rank %d", chunk, len(shape))
	}
	t := &tiling{
		shape:  shape.Clone(),
		chunk:  chunk.Clone(),
		counts: make([]int, len(shape)),
		n:      1,
	}
	// Chunk counts come from untrusted container indexes too, so the total
	// must not overflow; 2^31 tiles is far beyond any real dataset.
	const maxChunks = 1 << 31
	for d := range shape {
		if chunk[d] <= 0 {
			return nil, fmt.Errorf("store: chunk dimension %d has non-positive extent %d", d, chunk[d])
		}
		t.counts[d] = (shape[d] + chunk[d] - 1) / chunk[d]
		if t.n > maxChunks/t.counts[d] {
			return nil, fmt.Errorf("store: tiling %v/%v has too many chunks", shape, chunk)
		}
		t.n *= t.counts[d]
	}
	return t, nil
}

// defaultChunkShape returns the nominal chunk shape for a dataset: a
// DefaultChunkEdge hypercube clipped to the dataset extents.
func defaultChunkShape(shape grid.Shape) grid.Shape {
	out := make(grid.Shape, len(shape))
	for d, e := range shape {
		out[d] = DefaultChunkEdge
		if e < out[d] {
			out[d] = e
		}
	}
	return out
}

// coords converts a linear chunk index to chunk-grid coordinates.
func (t *tiling) coords(i int) []int {
	c := make([]int, len(t.counts))
	for d := len(t.counts) - 1; d >= 0; d-- {
		c[d] = i % t.counts[d]
		i /= t.counts[d]
	}
	return c
}

// index converts chunk-grid coordinates to the linear chunk index.
func (t *tiling) index(c []int) int {
	i := 0
	for d := range c {
		i = i*t.counts[d] + c[d]
	}
	return i
}

// box returns chunk i's region [lo, hi) in dataset coordinates, clipped to
// the dataset boundary.
func (t *tiling) box(i int) (lo, hi []int) {
	c := t.coords(i)
	lo = make([]int, len(c))
	hi = make([]int, len(c))
	for d := range c {
		lo[d] = c[d] * t.chunk[d]
		hi[d] = lo[d] + t.chunk[d]
		if hi[d] > t.shape[d] {
			hi[d] = t.shape[d]
		}
	}
	return lo, hi
}

// maxStackRank is the highest dataset rank the allocation-free serving
// helpers cover with fixed-size stack arrays; higher ranks (which no real
// dataset reaches) fall back to allocating the coordinate scratch.
const maxStackRank = 8

// intersectingInto returns the linear indices of every chunk whose box
// overlaps the region [lo, hi), in row-major chunk order. The indices are
// appended to dst[:0]'s backing array, so a caller that keeps the returned
// slice as the next call's dst performs no allocation once its capacity has
// grown to the working-set size.
func (t *tiling) intersectingInto(dst []int, lo, hi []int) []int {
	r := len(t.shape)
	var c0a, c1a, cura [maxStackRank]int
	var c0, c1, cur []int
	if r <= maxStackRank {
		c0, c1, cur = c0a[:r], c1a[:r], cura[:r]
	} else {
		c0, c1, cur = make([]int, r), make([]int, r), make([]int, r)
	}
	for d := 0; d < r; d++ {
		c0[d] = lo[d] / t.chunk[d]
		c1[d] = (hi[d] - 1) / t.chunk[d] // inclusive
		cur[d] = c0[d]
	}
	out := dst[:0]
	for {
		out = append(out, t.index(cur))
		d := r - 1
		for ; d >= 0; d-- {
			cur[d]++
			if cur[d] <= c1[d] {
				break
			}
			cur[d] = c0[d]
		}
		if d < 0 {
			return out
		}
	}
}

// validateRegion checks that [lo, hi) is a non-empty box inside shape.
func validateRegion(shape grid.Shape, lo, hi []int) error {
	if len(lo) != len(shape) || len(hi) != len(shape) {
		return fmt.Errorf("store: region rank %d/%d does not match dataset rank %d", len(lo), len(hi), len(shape))
	}
	for d := range shape {
		if lo[d] < 0 || hi[d] > shape[d] || lo[d] >= hi[d] {
			return fmt.Errorf("store: region [%v, %v) outside dataset shape %v", lo, hi, shape)
		}
	}
	return nil
}

// boxLen returns the element count of the box [lo, hi).
func boxLen(lo, hi []int) int {
	n := 1
	for d := range lo {
		n *= hi[d] - lo[d]
	}
	return n
}

// Intersect clips [alo, ahi) to [blo, bhi); ok is false when they are
// disjoint. Exported alongside CopyRegion for ipcomp/client, which clips
// remotely fetched tiles against its region the same way the store clips
// cached ones.
func Intersect(alo, ahi, blo, bhi []int) (lo, hi []int, ok bool) {
	r := len(alo)
	lo = make([]int, r)
	hi = make([]int, r)
	for d := 0; d < r; d++ {
		lo[d] = alo[d]
		if blo[d] > lo[d] {
			lo[d] = blo[d]
		}
		hi[d] = ahi[d]
		if bhi[d] < hi[d] {
			hi[d] = bhi[d]
		}
		if lo[d] >= hi[d] {
			return nil, nil, false
		}
	}
	return lo, hi, true
}

// CopyRegion copies the dataset-coordinate box [lo, hi) from a source box
// (row-major data of shape srcShape whose element [0,0,..] sits at dataset
// coordinate srcLo) into a destination box (dstShape at dstLo). The box
// must lie inside both. Runs along the innermost dimension are contiguous
// in both layouts, so they copy as slices. Strides and the iteration cursor
// live in stack arrays, which is what keeps the server's warm serve path
// allocation-free; a rank above maxStackRank is peeled, slowest dimension
// first, down to one that fits them. Exported for ipcomp/client, which
// assembles regions from remotely fetched tiles the same way the store
// assembles them from cached ones.
func CopyRegion[T grid.Scalar](dst []T, dstShape, dstLo []int, src []T, srcShape, srcLo []int, lo, hi []int) {
	r := len(lo)
	if r > maxStackRank {
		dstSlab, srcSlab := grid.Shape(dstShape[1:]).Len(), grid.Shape(srcShape[1:]).Len()
		for c := lo[0]; c < hi[0]; c++ {
			CopyRegion(dst[(c-dstLo[0])*dstSlab:], dstShape[1:], dstLo[1:],
				src[(c-srcLo[0])*srcSlab:], srcShape[1:], srcLo[1:], lo[1:], hi[1:])
		}
		return
	}
	var dstStr, srcStr, cur [maxStackRank]int
	ds, ss := 1, 1
	for d := r - 1; d >= 0; d-- {
		dstStr[d], srcStr[d] = ds, ss
		ds *= dstShape[d]
		ss *= srcShape[d]
	}
	copy(cur[:r], lo)
	run := hi[r-1] - lo[r-1]
	for {
		do, so := 0, 0
		for d := 0; d < r; d++ {
			do += (cur[d] - dstLo[d]) * dstStr[d]
			so += (cur[d] - srcLo[d]) * srcStr[d]
		}
		copy(dst[do:do+run], src[so:so+run])
		d := r - 2
		for ; d >= 0; d-- {
			cur[d]++
			if cur[d] < hi[d] {
				break
			}
			cur[d] = lo[d]
		}
		if d < 0 {
			return
		}
	}
}
