package core

import (
	"math"
	"testing"

	"repro/internal/grid"
)

// FuzzInputScan holds the compressor's input scans — grid.Range (the
// relative bound, the store writer's field-wide range) and Compress's copy
// with its float32 magnitude (copyMaxAbs) — to the sequential loops they
// replaced, bit for bit, with NaN ignored wherever it sits. Each value is
// two fuzz bytes: a class (NaN, ±Inf, ±0, a subnormal, or one of a few
// hundred normal values, so ties are common) and a magnitude; at most 40
// values, at either width.
func FuzzInputScan(f *testing.F) {
	f.Add(false, []byte{0, 0, 6, 10, 7, 200})
	f.Add(true, []byte{3, 0, 4, 0, 0, 0, 4, 0, 3, 0})
	f.Add(false, []byte{1, 0, 2, 0, 5, 1, 5, 130, 0, 0})
	f.Add(true, []byte{})
	f.Fuzz(func(t *testing.T, wide bool, raw []byte) {
		vals := make([]float64, 0, 40)
		for i := 0; i+1 < len(raw) && len(vals) < 40; i += 2 {
			vals = append(vals, scanValue(raw[i], raw[i+1], wide))
		}
		if wide {
			checkInputScan(t, vals)
		} else {
			checkInputScan(t, grid.NarrowSlice(vals))
		}
	})
}

// scanValue decodes one fuzz value.
func scanValue(class, mag byte, wide bool) float64 {
	sub := float64(math.SmallestNonzeroFloat32)
	if wide {
		sub = math.SmallestNonzeroFloat64
	}
	sign := 1.0
	if mag&1 != 0 {
		sign = -1
	}
	switch class % 8 {
	case 0:
		return math.NaN()
	case 1:
		return math.Inf(1)
	case 2:
		return math.Inf(-1)
	case 3:
		return 0
	case 4:
		return math.Copysign(0, -1)
	case 5:
		return sign * sub * float64(1+mag>>1)
	}
	return (float64(mag) - 128) / 4
}

func checkInputScan[T grid.Scalar](t *testing.T, src []T) {
	t.Helper()
	bits := func(v float64) uint64 { return math.Float64bits(v) }
	// The loops as they stood: Range from the first non-NaN value on, and
	// Compress's magnitude fold.
	var wantLo, wantHi, m T
	started := false
	for _, v := range src {
		if v == v && !started {
			wantLo, wantHi, started = v, v, true
		}
		if v < wantLo {
			wantLo = v
		}
		if v > wantHi {
			wantHi = v
		}
		if v < 0 {
			v = -v
		}
		if v > m {
			m = v
		}
	}
	if len(src) > 0 { // a grid has at least one value
		g, err := grid.FromSlice(src, grid.Shape{len(src)})
		if err != nil {
			t.Fatal(err)
		}
		lo, hi := g.Range()
		if bits(float64(lo)) != bits(float64(wantLo)) || bits(float64(hi)) != bits(float64(wantHi)) {
			t.Fatalf("Range = (%v, %v), sequential (%v, %v) over %v", lo, hi, wantLo, wantHi, src)
		}
	}
	dst := make([]T, len(src))
	if got := copyMaxAbs(dst, src); bits(got) != bits(float64(m)) {
		t.Fatalf("copyMaxAbs = %v, sequential %v over %v", got, m, src)
	}
	for i := range src {
		if bits(float64(dst[i])) != bits(float64(src[i])) {
			t.Fatalf("copy[%d] = %v, want %v", i, dst[i], src[i])
		}
	}
}
