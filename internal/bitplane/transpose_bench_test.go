package bitplane

import (
	"math/rand"
	"testing"
)

// benchN is the number of values one benchmarked split transposes (16Ki).
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
	planes := split(values)
	b.SetBytes(benchN * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SplitInto(planes, values)
	}
}

func BenchmarkSplitInto(b *testing.B) {
	b.Run("asm", func(b *testing.B) { benchSplit(b, true) })
	b.Run("generic", func(b *testing.B) { benchSplit(b, false) })
}
