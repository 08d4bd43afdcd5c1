package bitplane

import (
	"encoding/binary"
	"math/rand"
	"testing"
)

// splitPath runs SplitInto through the requested dispatch path and returns
// the planes. Skips the caller when the path is unavailable.
func splitPath(t testing.TB, values []uint32, asm bool) [][]byte {
	if setAVX2(asm) != asm {
		t.Skipf("AVX2 path unavailable on this build/CPU")
	}
	defer setAVX2(true)
	return split(values)
}

// checkSplitPaths demands identical plane bytes from the vector and the
// reference split of values.
func checkSplitPaths(t *testing.T, values []uint32) {
	t.Helper()
	want := splitPath(t, values, false)
	got := splitPath(t, values, true)
	for p := range want {
		for g := range want[p] {
			if got[p][g] != want[p][g] {
				t.Fatalf("n=%d plane %d byte %d: asm %08b want %08b", len(values), p, g, got[p][g], want[p][g])
			}
		}
	}
}

// TestSplitDispatchDifferential drives the vector and reference split over
// the same inputs, including sizes that straddle the 32-value kernel
// boundary, and demands identical plane bytes.
func TestSplitDispatchDifferential(t *testing.T) {
	if !setAVX2(true) {
		t.Skip("no AVX2 kernels in this build")
	}
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 7, 8, 31, 32, 33, 40, 63, 64, 65, 96, 127, 256, 1000} {
		values := make([]uint32, n)
		for i := range values {
			values[i] = rng.Uint32()
		}
		checkSplitPaths(t, values)
	}
}

// FuzzTransposeDispatch asserts the assembly and generic split kernels are
// indistinguishable: both must produce identical planes.
func FuzzTransposeDispatch(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{0xff, 0xee, 0xdd, 0xcc, 0, 0, 0, 1})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, raw []byte) {
		if !setAVX2(true) {
			t.Skip("no AVX2 kernels in this build")
		}
		values := make([]uint32, min(len(raw)/4, 1<<12))
		for i := range values {
			values[i] = binary.LittleEndian.Uint32(raw[4*i:])
		}
		checkSplitPaths(t, values)
	})
}
