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

// BenchmarkMergeDecodeRange times MergeDecodeRange through each dispatch
// path this build and CPU run, over benchN indices of 20 stored planes
// rebuilt from their first 14, as a rebuild merges a truncated level. It
// reports ns per value.
func BenchmarkMergeDecodeRange(b *testing.B) {
	const used, want = 20, 14
	c := newMergeCase(randomCodes(rand.New(rand.NewSource(3)), benchN, used), used, want, 0, benchN)
	ks := make([]int32, benchN)
	for _, path := range mergePaths {
		b.Run(path.name, func(b *testing.B) {
			if !path.use() {
				b.Skipf("%s path unavailable", path.name)
			}
			defer restoreMergePath()
			for b.Loop() {
				MergeDecodeRange(ks, c.loaded[:], 0, benchN, c.keep)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/benchN, "ns/value")
		})
	}
}
