package grid

import (
	"math"
	"math/rand"
	"testing"
)

// seqRange is the sequential loop CopyRange replaces, NaN ignored wherever
// it sits: start from the first non-NaN value, keep any value strictly
// below (above) the current one.
func seqRange[T Scalar](src []T) (lo, hi T) {
	started := false
	for _, v := range src {
		switch {
		case v != v:
		case !started:
			lo, hi, started = v, v, true
		default:
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
	}
	return lo, hi
}

// specials are the values whose compares the scan must get right.
var specials = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	1e-40, -1e-40, // float32 subnormals
	1, -1, 2.5, -2.5, math.MaxFloat32, -math.MaxFloat32,
}

func randomField[T Scalar](rng *rand.Rand, n int) []T {
	src := make([]T, n)
	for i := range src {
		if rng.Intn(3) == 0 {
			src[i] = T(specials[rng.Intn(len(specials))])
		} else {
			src[i] = T(rng.NormFloat64())
		}
	}
	return src
}

// TestCopyRangeDispatch holds both paths of CopyRange to the sequential
// loop, bit for bit, over lengths that do and do not fill vector
// iterations, with dense special values — NaN first, tied zeros of both
// signs, infinities, subnormals.
func TestCopyRangeDispatch(t *testing.T) {
	t.Cleanup(func() { setAVX2(true) })
	rng := rand.New(rand.NewSource(1))
	for _, avx := range []bool{false, true} {
		if setAVX2(avx) != avx {
			continue
		}
		for n := 0; n <= 200; n++ {
			for trial := 0; trial < 8; trial++ {
				checkCopyRange(t, avx, randomField[float32](rng, n))
				checkCopyRange(t, avx, randomField[float64](rng, n))
			}
		}
		// A minimum of zero whose sign only the first zero decides.
		z := make([]float32, 100)
		z[70] = float32(math.Copysign(0, -1))
		for i := range z[:70] {
			z[i] = 1
		}
		checkCopyRange(t, avx, z)
	}
}

func checkCopyRange[T Scalar](t *testing.T, avx bool, src []T) {
	t.Helper()
	wantLo, wantHi := seqRange(src)
	dst := make([]T, len(src))
	lo, hi := CopyRange(dst, src)
	bits := func(v T) uint64 { return math.Float64bits(float64(v)) }
	if bits(lo) != bits(wantLo) || bits(hi) != bits(wantHi) {
		t.Fatalf("avx2=%v %T n=%d: CopyRange = (%v, %v), sequential (%v, %v)\n%v", avx, lo, len(src), lo, hi, wantLo, wantHi, src)
	}
	for i := range src {
		if bits(dst[i]) != bits(src[i]) {
			t.Fatalf("%T n=%d: dst[%d] = %v, src %v", lo, len(src), i, dst[i], src[i])
		}
	}
	if lo2, hi2 := CopyRange(nil, src); bits(lo2) != bits(lo) || bits(hi2) != bits(hi) {
		t.Fatalf("%T n=%d: CopyRange without dst = (%v, %v), with (%v, %v)", lo, len(src), lo2, hi2, lo, hi)
	}
}

// TestRangeIgnoresNaN pins the NaN rule of Range and ValueRange: a NaN
// anywhere, first included, is ignored, and a grid with no other value
// spans 0.
func TestRangeIgnoresNaN(t *testing.T) {
	nan := math.NaN()
	for _, c := range []struct {
		data   []float64
		lo, hi float64
		span   float64
	}{
		{[]float64{nan, 3, -1, 7, 2}, -1, 7, 8},
		{[]float64{3, -1, 7, 2, 5, nan}, -1, 7, 8},
		{[]float64{nan, nan}, 0, 0, 0},
		{[]float64{nan, 4, nan, 4}, 4, 4, 0},
		{[]float64{math.Inf(1), nan, math.Inf(1)}, math.Inf(1), math.Inf(1), 0},
		{[]float64{math.Inf(1), math.Inf(-1), nan}, math.Inf(-1), math.Inf(1), 0},
		{[]float64{nan, math.Inf(-1), math.Inf(1)}, math.Inf(-1), math.Inf(1), 0},
		{[]float64{math.Inf(-1), 1, math.Inf(1)}, math.Inf(-1), math.Inf(1), math.Inf(1)},
	} {
		g := MustNew[float64](Shape{len(c.data)})
		copy(g.Data(), c.data)
		if lo, hi := g.Range(); lo != c.lo || hi != c.hi {
			t.Errorf("%v: Range = %v, %v; want %v, %v", c.data, lo, hi, c.lo, c.hi)
		}
		if r := g.ValueRange(); r != c.span {
			t.Errorf("%v: ValueRange = %v, want %v", c.data, r, c.span)
		}
	}
}

// BenchmarkRange prices Range over a smooth 128³ float32 field and a
// float64 one, in ns per value.
func BenchmarkRange(b *testing.B) {
	for _, name := range []string{"f32", "f64"} {
		b.Run(name, func(b *testing.B) {
			const n = 128 * 128 * 128
			var scan func()
			if name == "f32" {
				g := MustNew[float32](Shape{128, 128, 128})
				for i := range g.Data() {
					g.Data()[i] = float32(math.Sin(float64(i) * 1e-3))
				}
				scan = func() { g.Range() }
			} else {
				g := MustNew[float64](Shape{128, 128, 128})
				for i := range g.Data() {
					g.Data()[i] = math.Sin(float64(i) * 1e-3)
				}
				scan = func() { g.Range() }
			}
			for b.Loop() {
				scan()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/value")
		})
	}
}
