package bitplane

import (
	"encoding/binary"
	"math/rand"
	"testing"
)

// splitBoth runs SplitRange through the requested dispatch path and returns
// the planes. Skips the caller when the path is unavailable.
func splitPath(t testing.TB, values []uint32, asm bool) [][]byte {
	if setAVX2(asm) != asm {
		t.Skipf("AVX2 path unavailable on this build/CPU")
	}
	defer setAVX2(true)
	n := len(values)
	nbytes := (n + 7) / 8
	planes := make([][]byte, Planes)
	for p := range planes {
		planes[p] = make([]byte, nbytes)
	}
	SplitRange(planes, values, 0, n)
	return planes
}

// TestSplitDispatchDifferential drives the vector and reference split over
// the same inputs, including sizes that straddle the 32-value kernel
// boundary, and demands identical plane bytes.
func TestSplitDispatchDifferential(t *testing.T) {
	if !setAVX2(true) {
		t.Skip("no AVX2 kernels in this build")
	}
	defer setAVX2(true)
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 7, 8, 31, 32, 33, 40, 63, 64, 65, 96, 127, 256, 1000} {
		values := make([]uint32, n)
		for i := range values {
			values[i] = rng.Uint32()
		}
		want := splitPath(t, values, false)
		got := splitPath(t, values, true)
		for p := range want {
			for g := range want[p] {
				if got[p][g] != want[p][g] {
					t.Fatalf("n=%d plane %d byte %d: asm %08b want %08b", n, p, g, got[p][g], want[p][g])
				}
			}
		}
	}
}

// TestMergeDispatchDifferential does the same for MergeRange, including
// truncated plane sets and nil (unloaded) planes.
func TestMergeDispatchDifferential(t *testing.T) {
	if !setAVX2(true) {
		t.Skip("no AVX2 kernels in this build")
	}
	defer setAVX2(true)
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 8, 32, 40, 63, 64, 100, 256} {
		values := make([]uint32, n)
		for i := range values {
			values[i] = rng.Uint32()
		}
		full := splitPath(t, values, false)
		for _, np := range []int{0, 1, 7, 8, 9, 16, 20, 31, 32} {
			planes := make([][]byte, Planes)
			copy(planes, full[:np])
			// Randomly drop a few loaded planes to exercise nil handling.
			for p := 0; p < np; p++ {
				if rng.Intn(5) == 0 {
					planes[p] = nil
				}
			}
			gotBuf := make([]uint32, n)
			wantBuf := make([]uint32, n)
			setAVX2(false)
			MergeInto(wantBuf, planes)
			setAVX2(true)
			MergeInto(gotBuf, planes)
			for i := range wantBuf {
				if gotBuf[i] != wantBuf[i] {
					t.Fatalf("n=%d np=%d value %d: asm %#x want %#x", n, np, i, gotBuf[i], wantBuf[i])
				}
			}
		}
	}
}

// FuzzTransposeDispatch asserts the assembly and generic kernels are
// indistinguishable: split must produce identical planes, and merge over a
// fuzz-chosen plane prefix must reproduce identical values.
func FuzzTransposeDispatch(f *testing.F) {
	f.Add(uint8(32), []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(uint8(9), []byte{0xff, 0xee, 0xdd, 0xcc, 0, 0, 0, 1})
	f.Add(uint8(0), []byte{})
	f.Fuzz(func(t *testing.T, np uint8, raw []byte) {
		if !setAVX2(true) {
			t.Skip("no AVX2 kernels in this build")
		}
		defer setAVX2(true)
		n := len(raw) / 4
		if n > 1<<12 {
			n = 1 << 12
		}
		values := make([]uint32, n)
		for i := range values {
			values[i] = binary.LittleEndian.Uint32(raw[4*i:])
		}
		want := splitPath(t, values, false)
		got := splitPath(t, values, true)
		for p := range want {
			for g := range want[p] {
				if got[p][g] != want[p][g] {
					t.Fatalf("split n=%d plane %d byte %d: asm %08b want %08b", n, p, g, got[p][g], want[p][g])
				}
			}
		}
		keep := int(np) % (Planes + 1)
		planes := make([][]byte, Planes)
		copy(planes, want[:keep])
		for p := 0; p < keep; p++ {
			// Deterministically drop some planes to cover nil handling.
			if (int(np)+p)%7 == 0 {
				planes[p] = nil
			}
		}
		gotBuf := make([]uint32, n)
		wantBuf := make([]uint32, n)
		setAVX2(false)
		MergeInto(wantBuf, planes)
		setAVX2(true)
		MergeInto(gotBuf, planes)
		for i := range wantBuf {
			if gotBuf[i] != wantBuf[i] {
				t.Fatalf("merge n=%d keep=%d value %d: asm %#x want %#x", n, keep, i, gotBuf[i], wantBuf[i])
			}
		}
	})
}
