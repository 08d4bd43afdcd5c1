package bitplane

import (
	"math/rand"
	"testing"
)

// benchTranspose sizes match the per-chunk shard the compressor feeds
// SplitRange (16Ki values).
const benchN = 1 << 14

func benchValues() []uint32 {
	rng := rand.New(rand.NewSource(3))
	values := make([]uint32, benchN)
	for i := range values {
		values[i] = rng.Uint32()
	}
	return values
}

func benchSplit(b *testing.B, asm bool) {
	if setAVX2(asm) != asm {
		b.Skip("AVX2 path unavailable")
	}
	defer setAVX2(true)
	values := benchValues()
	planes := make([][]byte, Planes)
	for p := range planes {
		planes[p] = make([]byte, benchN/8)
	}
	b.SetBytes(benchN * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SplitRange(planes, values, 0, benchN)
	}
}

func benchMerge(b *testing.B, asm bool) {
	if setAVX2(asm) != asm {
		b.Skip("AVX2 path unavailable")
	}
	defer setAVX2(true)
	planes := Split(benchValues())
	out := make([]uint32, benchN)
	b.SetBytes(benchN * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MergeRange(out, planes, 0, benchN)
	}
}

func BenchmarkSplitRange(b *testing.B) {
	b.Run("asm", func(b *testing.B) { benchSplit(b, true) })
	b.Run("generic", func(b *testing.B) { benchSplit(b, false) })
}

func BenchmarkMergeRange(b *testing.B) {
	b.Run("asm", func(b *testing.B) { benchMerge(b, true) })
	b.Run("generic", func(b *testing.B) { benchMerge(b, false) })
}
