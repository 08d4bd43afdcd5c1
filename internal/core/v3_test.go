package core

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/codec"
	"repro/internal/grid"
	"repro/internal/interp"
	"repro/internal/nb"
)

func v3Field(t *testing.T) *grid.Grid[float64] {
	t.Helper()
	shape := grid.Shape{33, 29, 21}
	data := make([]float64, shape.Len())
	i := 0
	for x := 0; x < shape[0]; x++ {
		for y := 0; y < shape[1]; y++ {
			for z := 0; z < shape[2]; z++ {
				data[i] = math.Sin(0.21*float64(x))*math.Cos(0.17*float64(y)) +
					0.3*math.Sin(0.4*float64(z)) + 1e-4*float64(x*y%7)
				i++
			}
		}
	}
	g, err := grid.FromSlice(data, shape)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestV3AutoRoundTrip pins the v3 format end to end: the Auto policy emits
// a version-3 archive that records its policy, decodes within the bound at
// full fidelity, and still supports progressive plans.
func TestV3AutoRoundTrip(t *testing.T) {
	g := v3Field(t)
	const eb = 1e-6
	blob, err := Compress(g, Options{ErrorBound: eb, Interpolation: interp.Cubic, Codec: codec.PolicyAuto})
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewArchive(blob)
	if err != nil {
		t.Fatal(err)
	}
	if a.FormatVersion() != Version3 {
		t.Fatalf("FormatVersion = %d, want %d", a.FormatVersion(), Version3)
	}
	if a.Codec() != codec.PolicyAuto {
		t.Fatalf("Codec = %v, want auto", a.Codec())
	}
	res, err := a.RetrieveAll()
	if err != nil {
		t.Fatal(err)
	}
	in, out := g.Data(), res.Data()
	for i := range in {
		if d := math.Abs(in[i] - out[i]); d > eb {
			t.Fatalf("point %d: |%g - %g| = %g > %g", i, in[i], out[i], d, eb)
		}
	}
	// Progressive plan under a looser bound must still decode and honor it.
	loose, err := a.RetrieveErrorBound(1e-3)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range loose.Data() {
		if d := math.Abs(in[i] - v); d > loose.GuaranteedError() {
			t.Fatalf("progressive point %d: err %g > guaranteed %g", i, d, loose.GuaranteedError())
		}
	}
}

// TestV3DefaultStaysLegacy pins the version-minimization rule: the
// zero-value Options still emit v1 (f64) bytes with no codec field.
func TestV3DefaultStaysLegacy(t *testing.T) {
	g := v3Field(t)
	legacy, err := Compress(g, Options{ErrorBound: 1e-6, Interpolation: interp.Cubic})
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := Compress(g, Options{ErrorBound: 1e-6, Interpolation: interp.Cubic, Codec: codec.PolicyDeflate})
	if err != nil {
		t.Fatal(err)
	}
	if string(legacy) != string(explicit) {
		t.Fatal("explicit PolicyDeflate diverges from zero-value options")
	}
	a, err := NewArchive(legacy)
	if err != nil {
		t.Fatal(err)
	}
	if a.FormatVersion() != Version1 || a.Codec() != codec.PolicyDeflate {
		t.Fatalf("legacy archive reports v%d codec %v", a.FormatVersion(), a.Codec())
	}
}

// TestV3ReservedPolicyRejected: there is no policy 2 (it was once held for
// zstd). It is refused at compress time and as the policy byte of a v3
// header, and block tag 4, which stays reserved in the format, is refused
// by the block decoder — never an undecodable archive, never wrong data.
func TestV3ReservedPolicyRejected(t *testing.T) {
	g := v3Field(t)
	opts := Options{ErrorBound: 1e-6, Interpolation: interp.Cubic, Codec: codec.Policy(2)}
	if _, err := Compress(g, opts); err == nil {
		t.Fatal("compress under policy 2 succeeded; want error")
	}
	opts.Codec = codec.PolicyAuto
	blob, err := Compress(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	// 8-byte length prefix, then magic, version, kind, rank, scalar, three
	// u32 extents, eb and maxAbs (f64): the policy byte follows.
	const policyAt = 8 + 4 + 4 + 3*4 + 8 + 8
	if blob[policyAt] != byte(codec.PolicyAuto) {
		t.Fatalf("byte %d is %d, not the policy byte of an auto archive", policyAt, blob[policyAt])
	}
	blob[policyAt] = 2
	if _, err := NewArchive(blob); err == nil || !strings.Contains(err.Error(), "unknown codec policy 2") {
		t.Fatalf("header with policy byte 2: err = %v; want unknown codec policy", err)
	}
	if _, err := codec.DecodeBlock([]byte{4, 0, 0, 0}, 3); err == nil || !strings.Contains(err.Error(), "reserved") {
		t.Fatalf("block tag 4: err = %v; want the reserved-method error", err)
	}
}

// TestExactMaxDropDifferential pins the incremental partial-sum
// implementation against the straightforward decode-per-depth reference on
// adversarial index distributions.
func TestExactMaxDropDifferential(t *testing.T) {
	ref := func(ks []int32, nbv []uint32, used int) []uint32 {
		out := make([]uint32, used+1)
		for i, u := range nbv {
			k := int64(ks[i])
			for d := 1; d <= used; d++ {
				diff := k - int64(nb.Decode32(nb.Truncate(u, d)))
				if diff < 0 {
					diff = -diff
				}
				if uint32(diff) > out[d] {
					out[d] = uint32(diff)
				}
			}
		}
		return out
	}
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(5000)
		ks := make([]int32, n)
		nbv := make([]uint32, n)
		for i := range ks {
			switch rng.Intn(4) {
			case 0:
				ks[i] = 0
			case 1:
				ks[i] = int32(rng.Intn(7)) - 3
			case 2:
				ks[i] = int32(rng.Intn(1<<16)) - 1<<15
			default:
				ks[i] = int32(rng.Intn(2*nb.MaxIndex+1)) - nb.MaxIndex
			}
			nbv[i] = nb.Encode32(ks[i])
		}
		used := 0
		for _, u := range nbv {
			if b := 32 - leading(u); b > used {
				used = b
			}
		}
		if rng.Intn(2) == 0 && used < 32 {
			used++ // exercise depths past every value's top digit
		}
		got := exactMaxDrop(ks, nbv, used)
		want := ref(ks, nbv, used)
		for d := range want {
			if got[d] != want[d] {
				t.Fatalf("trial %d: maxDrop[%d] = %d, want %d", trial, d, got[d], want[d])
			}
		}
	}
}

func leading(u uint32) int {
	n := 0
	for b := uint32(1 << 31); b != 0 && u&b == 0; b >>= 1 {
		n++
	}
	return n
}
