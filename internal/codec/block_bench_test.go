package codec

import (
	"math/rand"
	"testing"
)

// Plane sizes: one bitplane of a 32³ tile's finest level (28 672 values)
// and one of a 256Ki-value level.
const (
	tilePlaneBytes = 3584
	benchPlaneSize = 32 << 10
)

// benchPlane builds an n-byte plane with the character the sub-benchmark
// targets.
func benchPlane(kind string, n int) []byte {
	rng := rand.New(rand.NewSource(7))
	p := make([]byte, n)
	switch kind {
	case "deflate":
		// Mid-entropy, compressible: few distinct symbols, local repetition
		// — the shape of a mid bitplane after prefix prediction.
		for i := range p {
			p[i] = byte(rng.Intn(8)) << uint(rng.Intn(2))
		}
	case "raw":
		// High-entropy: incompressible noise, the shape of deep bitplanes.
		rng.Read(p)
	case "rle":
		// Sparse: long zero runs with occasional set bytes, the shape of
		// top bitplanes near the progressive threshold.
		for i := 0; i < n; i += 97 {
			p[i] = byte(1 + rng.Intn(255))
		}
	}
	return p
}

// BenchmarkCodecEncodeBlock measures the Auto policy on the three plane
// shapes it routes between (raw and rle show the skip-DEFLATE win), and the
// Deflate policy — what every workload packs with — on a compressible plane
// at the 32³ tile's size and at 32 KiB, where the per-block Huffman table
// build is a visible share.
func BenchmarkCodecEncodeBlock(b *testing.B) {
	run := func(name string, p []byte, policy Policy) {
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(len(p)))
			b.ReportAllocs()
			for b.Loop() {
				if blk := EncodeBlockPolicy(p, policy); len(blk) == 0 {
					b.Fatal("empty block")
				}
			}
		})
	}
	for _, kind := range []string{"deflate", "raw", "rle"} {
		run(kind, benchPlane(kind, benchPlaneSize), PolicyAuto)
	}
	run("policy=deflate/tile3584", benchPlane("deflate", tilePlaneBytes), PolicyDeflate)
	run("policy=deflate/32KiB", benchPlane("deflate", benchPlaneSize), PolicyDeflate)
}
