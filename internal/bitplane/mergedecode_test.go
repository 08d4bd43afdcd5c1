package bitplane

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"repro/internal/nb"
)

// mergeCase is one MergeDecodeRange case: the negabinary codes of a level of
// used planes, stored as the coder stores them (transposed, then
// XOR-predicted), rebuilt from their first want planes over ks[lo:hi).
type mergeCase struct {
	codes      []uint32
	used, want int
	lo, hi     int
	stored     [][]byte // the used planes, predicted, MSB first
	keep       uint32
	loaded     [Planes][]byte
	truncated  []int32
}

func newMergeCase(codes []uint32, used, want, lo, hi int) *mergeCase {
	r := &mergeCase{codes: codes, used: used, want: want, lo: lo, hi: hi}
	all := split(codes)
	r.stored = all[Planes-used:]
	PredictEncode(r.stored)
	for p := 0; p < want; p++ {
		r.loaded[Planes-used+p] = r.stored[p]
	}
	r.keep = ^uint32(0) << uint(used-want)
	r.truncated = make([]int32, len(codes))
	for i, c := range codes {
		r.truncated[i] = nb.Decode32(c & r.keep)
	}
	return r
}

// bytePlanes is the oracle: undo the prediction of the loaded planes plane
// by plane on their bytes (PredictDecode), merge them into one word per
// value (MergeInto, plain Go on every build), then decode each.
func (r *mergeCase) bytePlanes() []int32 {
	var planes [Planes][]byte
	sub := planes[Planes-r.used:]
	for p := 0; p < r.want; p++ {
		sub[p] = append([]byte(nil), r.stored[p]...)
	}
	PredictDecode(sub[:r.want])
	nbv := make([]uint32, len(r.codes))
	MergeInto(nbv, planes[:])
	ks := make([]int32, len(r.codes))
	for i, v := range nbv {
		ks[i] = nb.Decode32(v)
	}
	return ks
}

// mergePath is one of MergeDecodeRange's dispatch paths: the generic
// loop, the AVX2 kernel's shift-and-mask form, or its GFNI form.
type mergePath struct {
	name       string
	avx2, gfni bool
}

var mergePaths = []mergePath{{"generic", false, false}, {"avx2", true, false}, {"gfni", true, true}}

// use switches the dispatch to path and reports whether this build and CPU
// have it; restoreMergePath switches back to what the CPU offers.
func (path mergePath) use() bool {
	return setAVX2(path.avx2) == path.avx2 && setGFNI(path.gfni) == path.gfni
}

func restoreMergePath() {
	setAVX2(true)
	setGFNI(true)
}

// availableMergePaths lists the paths this build and CPU run.
func availableMergePaths() []mergePath {
	defer restoreMergePath()
	var out []mergePath
	for _, path := range mergePaths {
		if path.use() {
			out = append(out, path)
		}
	}
	return out
}

// fused runs MergeDecodeRange through path over indices poisoned with
// garbage: the kernel reads none of them.
func (r *mergeCase) fused(path mergePath) []int32 {
	path.use()
	defer restoreMergePath()
	ks := make([]int32, len(r.codes))
	for i := range ks {
		ks[i] = int32(0x5A5A5A5A ^ i)
	}
	MergeDecodeRange(ks, r.loaded[:], r.lo, r.hi, r.keep)
	return ks
}

// check demands that every available dispatch path, the byte-plane oracle
// and the truncation of the codes at want all agree inside [lo, hi), and
// that nothing outside it moved.
func (r *mergeCase) check(t *testing.T) {
	t.Helper()
	oracle := r.bytePlanes()
	paths := availableMergePaths()
	got := make([][]int32, len(paths))
	for k, path := range paths {
		got[k] = r.fused(path)
	}
	for i := range r.codes {
		if oracle[i] != r.truncated[i] {
			t.Fatalf("used=%d want=%d value %d: byte-plane oracle %d, truncation %d", r.used, r.want, i, oracle[i], r.truncated[i])
		}
		want := int32(0x5A5A5A5A ^ i)
		if i >= r.lo && i < r.hi {
			want = r.truncated[i]
		}
		for k, ks := range got {
			if ks[i] != want {
				t.Fatalf("used=%d want=%d [%d,%d) value %d: %s path %d, want %d", r.used, r.want, r.lo, r.hi, i, paths[k].name, ks[i], want)
			}
		}
	}
}

// randomCodes draws n codes of at most used digits.
func randomCodes(rng *rand.Rand, n, used int) []uint32 {
	codes := make([]uint32, n)
	for i := range codes {
		codes[i] = rng.Uint32() >> uint(Planes-used)
	}
	return codes
}

// TestMergeDecodeRangeDifferential sweeps every loaded prefix of several
// plane counts over lengths on both sides of the 32-value kernel step and
// past two calls of the kernel (8192 values each), through every dispatch path this
// build and CPU run; it logs which.
func TestMergeDecodeRangeDifferential(t *testing.T) {
	for _, path := range availableMergePaths() {
		t.Logf("merge path %s runs", path.name)
	}
	rng := rand.New(rand.NewSource(31))
	for _, used := range []int{1, 2, 3, 7, 8, 9, 17, 24, 31, 32} {
		for _, n := range []int{1, 31, 32, 77, 200, 1<<14 + 40} {
			codes := randomCodes(rng, n, used)
			for want := 0; want <= used; want++ {
				lo := rng.Intn(n+1) &^ 7
				hi := lo + rng.Intn(n-lo+1)
				newMergeCase(codes, used, want, 0, n).check(t)
				newMergeCase(codes, used, want, lo, hi).check(t)
			}
		}
	}
}

// TestSplitEncodeRange holds the coder's split — negabinary encoding and
// prediction inside the transpose — to SplitInto over the codes plus
// PredictEncode, on both dispatch paths, for any 32-bit codes and for codes
// below a top plane, where the used planes alone are predicted.
func TestSplitEncodeRange(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{0, 1, 8, 31, 32, 33, 100, 1000} {
		for _, used := range []int{1, 13, 32} {
			codes := randomCodes(rng, n, used)
			want := split(codes)
			PredictEncode(want[Planes-used:])
			checkSplitEncode(t, codes, want)
		}
	}
}

// checkSplitEncode splits the indices whose negabinary codes are codes and
// wants the planes want.
func checkSplitEncode(t *testing.T, codes []uint32, want [][]byte) {
	t.Helper()
	ks := make([]int32, len(codes))
	for i, u := range codes {
		ks[i] = nb.Decode32(u)
	}
	for _, asm := range []bool{false, true} {
		if setAVX2(asm) != asm {
			continue
		}
		// Each plane is followed by 32 bytes of its buffer: plane backings
		// pack short planes back to back, so the split must write nothing
		// past a plane.
		got, bufs := make([][]byte, Planes), make([][]byte, Planes)
		for p := range got {
			n := len(want[p])
			bufs[p] = make([]byte, n+32)
			for i := range bufs[p] {
				bufs[p][i] = 0xA5 // poison: every byte in range is written
			}
			got[p] = bufs[p][:n:n]
		}
		SplitEncodeRange(got, ks, 0, len(ks))
		setAVX2(true)
		for p := range want {
			for g := range want[p] {
				if got[p][g] != want[p][g] {
					t.Fatalf("n=%d asm=%v plane %d byte %d: %08b want %08b", len(codes), asm, p, g, got[p][g], want[p][g])
				}
			}
			for i, b := range bufs[p][len(want[p]):] {
				if b != 0xA5 {
					t.Fatalf("n=%d asm=%v plane %d: byte %d past the plane written", len(codes), asm, p, i)
				}
			}
		}
	}
}

// FuzzMergeDecodeDispatch holds MergeDecodeRange's generic loop and both
// forms of its AVX2 kernel, shift-and-mask and GFNI, whichever this build
// and CPU run, to the byte-plane oracle and to plain truncation, for a
// fuzz-chosen plane count, loaded prefix, 8-aligned start and length; the
// same codes also check the coder's split (SplitEncodeRange).
func FuzzMergeDecodeDispatch(f *testing.F) {
	f.Add(uint8(31), uint8(12), uint16(0), uint16(100), []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(uint8(20), uint8(19), uint16(9), uint16(40), []byte{0xff, 0xee, 0xdd, 0xcc, 0, 0, 0, 1})
	f.Add(uint8(0), uint8(0), uint16(0), uint16(0), []byte{})
	f.Fuzz(func(t *testing.T, used, want uint8, lo, hi uint16, raw []byte) {
		n := min(len(raw)/4, 1<<12)
		u := 1 + int(used)%Planes
		w := int(want) % (u + 1)
		codes := make([]uint32, n)
		for i := range codes {
			codes[i] = binary.LittleEndian.Uint32(raw[4*i:]) >> uint(Planes-u)
		}
		l := int(lo) % (n + 1) &^ 7
		e := l + int(hi)%(n-l+1)
		newMergeCase(codes, u, w, l, e).check(t)
		planes := split(codes)
		PredictEncode(planes[Planes-u:])
		checkSplitEncode(t, codes, planes)
	})
}
