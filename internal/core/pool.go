package core

import (
	"math/bits"
	"sync"
)

// The scratch pools: one per element type, and in each a sync.Pool per
// capacity class, class k holding backings whose capacity has bit length
// k. Every pooled slice goes through GetScratch/PutScratch — compress's
// work arrays, quantization indices and bitplane backings, a retrieval's
// span reads, the values and planes of a released Result, the store's
// tile staging and the server's ingest bodies — so a backing one of them
// returns may serve any other that asks for its class. A class hands out
// less than twice what it is asked for, so a result on pooled backings
// retains less than twice what it holds; one pool for all sizes would
// also make Get churn, popping and dropping small entries on the way to a
// big one.
var (
	scratch64    [bits.UintSize + 1]sync.Pool
	scratch32    [bits.UintSize + 1]sync.Pool
	scratchInt32 [bits.UintSize + 1]sync.Pool
	scratchBytes [bits.UintSize + 1]sync.Pool
)

// scratchElem is the element types the scratch pools hold.
type scratchElem interface {
	float64 | float32 | int32 | byte
}

// scratchClass is the pool of T's backings whose capacity has bit length
// k. The type switch costs one comparison per call, not per element.
func scratchClass[T scratchElem](k int) *sync.Pool {
	switch any(*new(T)).(type) {
	case float64:
		return &scratch64[k]
	case float32:
		return &scratch32[k]
	case int32:
		return &scratchInt32[k]
	}
	return &scratchBytes[k]
}

// GetScratch returns a length-n slice whose capacity is in [n, 2n),
// reusing a pooled backing of n's class when one fits. It does not zero:
// users overwrite their buffers in full. Undersized entries of the class
// are dropped, not re-Put: sync.Pool.Get pops the P-private slot first, so
// a re-Put undersized buffer would shadow every larger one behind it.
func GetScratch[T scratchElem](n int) []T {
	p := scratchClass[T](bits.Len(uint(n)))
	for try := 0; try < 4; try++ {
		v := p.Get()
		if v == nil {
			break
		}
		if s := *(v.(*[]T)); cap(s) >= n {
			return s[:n]
		}
	}
	return make([]T, n)
}

// PutScratch hands s to later GetScratch calls of its capacity's class;
// a zero-capacity slice is dropped. Nothing may use s after it.
func PutScratch[T scratchElem](s []T) {
	if cap(s) == 0 {
		return
	}
	scratchClass[T](bits.Len(uint(cap(s)))).Put(&s)
}
