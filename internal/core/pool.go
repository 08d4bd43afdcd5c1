package core

import (
	"math/bits"
	"sync"

	"repro/internal/grid"
)

// SlicePool is a sync.Pool of slices of one element type. It backs the
// scratch buffers of the compression/retrieval hot paths and is exported
// so sibling packages (the chunked store's tile staging) share the same
// pooling behavior instead of growing divergent copies.
//
// Get does not zero: users overwrite their buffers in full.
type SlicePool[T any] struct{ p sync.Pool }

// Get returns a length-n slice, reusing pooled capacity when possible.
// Undersized entries are dropped, not re-Put: sync.Pool.Get pops the
// P-private slot first, so a re-Put undersized buffer would shadow every
// larger buffer behind it and turn Get into a permanent cache miss. Sizes
// within one pool converge (pools are segmented by use), so a few pops
// find a fit or the pool is effectively empty.
func (sp *SlicePool[T]) Get(n int) []T {
	for try := 0; try < 4; try++ {
		v := sp.p.Get()
		if v == nil {
			break
		}
		if s := *(v.(*[]T)); cap(s) >= n {
			return s[:n]
		}
	}
	return make([]T, n)
}

// Put returns a slice to the pool; nil and zero-capacity slices are
// dropped.
func (sp *SlicePool[T]) Put(s []T) {
	if cap(s) == 0 {
		return
	}
	sp.p.Put(&s)
}

// The package-level pools are shared across levels, retrievals, and — via
// the chunked store's tile workers, which run many Compress/Retrieve calls
// at once — across tiles, so hot paths stop re-allocating per level and
// per tile.
// Pools are segmented by size class as well as element type: mixing
// classes in one pool makes Get churn (small entries popped and dropped on
// the way to a big one) and lets tiny reads pin huge buffers.
var (
	floatScratch  SlicePool[float64] // grid-length float64 work arrays
	work32Scratch SlicePool[float32] // grid-length float32 work arrays
	int32Scratch  SlicePool[int32]   // quantization index backings
	byteScratch   SlicePool[byte]    // bitplane backings: compress's, a full retrieval's (multi-MB class)
	spanScratch   SlicePool[byte]    // block span reads (KB class)
)

// classPool is a SlicePool per capacity class: class k holds slices whose
// capacity has bit length k, so Get(n) hands out capacity n to 2n−1 and
// never a backing much larger than what it is asked for.
type classPool[T any] [bits.UintSize + 1]SlicePool[T]

func (p *classPool[T]) Get(n int) []T { return p[bits.Len(uint(n))].Get(n) }
func (p *classPool[T]) Put(s []T)     { p[bits.Len(uint(cap(s)))].Put(s) }

// The backings of released results (Result.Release), and only those: a
// retrieval takes its values and, below full fidelity, its planes from
// here, so a program that never releases allocates exactly what it did
// without them. The size classes keep what a recycled result retains
// within twice what it holds, which is what lets the store's tile cache go
// on charging a tile its length.
var (
	released64     classPool[float64]
	released32     classPool[float32]
	releasedPlanes classPool[byte]
)

// PoolGet and PoolPut route a scalar-generic slice to the pool matching
// its element type, given one pool per width. The any-dance costs one type
// assertion per call, not per element; sibling packages with their own
// width-segmented pool pairs (the store's tile staging) share this routing
// instead of growing copies of it.
func PoolGet[T grid.Scalar](p64 *SlicePool[float64], p32 *SlicePool[float32], n int) []T {
	var z T
	if _, ok := any(z).(float32); ok {
		return any(p32.Get(n)).([]T)
	}
	return any(p64.Get(n)).([]T)
}

// PoolPut returns a slice obtained from PoolGet to the pool of its width.
func PoolPut[T grid.Scalar](p64 *SlicePool[float64], p32 *SlicePool[float32], s []T) {
	switch v := any(s).(type) {
	case []float32:
		p32.Put(v)
	case []float64:
		p64.Put(v)
	}
}

// getWork/putWork bind the pair above to the compressor's work pools.
func getWork[T grid.Scalar](n int) []T { return PoolGet[T](&floatScratch, &work32Scratch, n) }
func putWork[T grid.Scalar](s []T)     { PoolPut(&floatScratch, &work32Scratch, s) }
