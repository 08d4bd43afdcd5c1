package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"os"
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

// v3Fixture is a version-3 archive written by an earlier release's "auto"
// codec policy: v3Field, eb 1e-6, cubic. Its blocks use all five block
// methods, and the current encoder cannot write it, so it is the only
// test of the v3 header and of the RLE and Huffman decoders on a real
// archive.
const v3Fixture = "testdata/v3_auto_cubic.ipc"

// Pinned digests: the fixture's bytes, and the float64 little-endian bytes
// of its RetrieveAll and RetrieveErrorBound(1e-3) outputs, recorded by the
// release that wrote it.
const (
	v3FixtureDigest = "1a4522507414577737fd85c7bc1ebcb155d91e098921bbd97d5717a9e8c18a85"
	v3AllDigest     = "36331a28434634d64802f6d4f1c04441d59217132487469c5001b01d2ceb0d86"
	v3LooseDigest   = "abdcd3d174c54f45dd1aaac3e6fb3ec9655ede21c28b27222fd9c466e8171d6d"
)

func readV3Fixture(t *testing.T) []byte {
	t.Helper()
	blob, err := os.ReadFile(v3Fixture)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(blob)
	if got := hex.EncodeToString(sum[:]); got != v3FixtureDigest {
		t.Fatalf("fixture drifted from the pinned v3 bytes:\n got  %s\n want %s", got, v3FixtureDigest)
	}
	return blob
}

func valuesDigest(v []float64) string {
	b := make([]byte, 8*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(x))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// decodedBytes snapshots codec.Stats' per-method decoded byte counters.
func decodedBytes() map[string]int64 {
	m := make(map[string]int64)
	for _, s := range codec.Stats() {
		m[s.Method] = s.DecodedBytes
	}
	return m
}

// TestV3AutoRoundTrip opens the committed v3 archive and decodes it to the
// pinned outputs, at full fidelity and through a progressive plan, each
// within its bound of the field it was written from. The codec counters
// show the full decode passed through every block method the archive
// uses, the RLE and Huffman ones included.
func TestV3AutoRoundTrip(t *testing.T) {
	blob := readV3Fixture(t)
	a, err := NewArchive(blob)
	if err != nil {
		t.Fatal(err)
	}
	if a.FormatVersion() != Version3 || a.Scalar() != Float64 {
		t.Fatalf("FormatVersion = %d scalar %v, want %d Float64", a.FormatVersion(), a.Scalar(), Version3)
	}
	in := v3Field(t).Data()

	before := decodedBytes()
	all, err := a.RetrieveAll()
	if err != nil {
		t.Fatal(err)
	}
	after := decodedBytes()
	if got := valuesDigest(all.Data()); got != v3AllDigest {
		t.Fatalf("RetrieveAll digest %s, want %s", got, v3AllDigest)
	}
	if d := maxAbsDiff(in, all.Data()); d > 1e-6 {
		t.Fatalf("RetrieveAll error %g > 1e-6", d)
	}
	for _, m := range []string{"raw", "deflate", "zero", "rle", "huff"} {
		if after[m] <= before[m] {
			t.Errorf("full decode read no %s block", m)
		}
	}

	loose, err := a.RetrieveErrorBound(1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if got := valuesDigest(loose.Data()); got != v3LooseDigest {
		t.Fatalf("RetrieveErrorBound(1e-3) digest %s, want %s", got, v3LooseDigest)
	}
	if d := maxAbsDiff(in, loose.Data()); d > loose.GuaranteedError() || loose.GuaranteedError() > 1e-3 {
		t.Fatalf("progressive error %g, guaranteed %g, bound 1e-3", d, loose.GuaranteedError())
	}
	if loose.LoadedBytes() >= all.LoadedBytes() {
		t.Errorf("progressive plan loaded %d of %d bytes", loose.LoadedBytes(), all.LoadedBytes())
	}
}

// TestV3DefaultStaysLegacy pins that the writer emits only the versions
// without a codec-policy byte: v1 for float64 grids, v2 for float32.
func TestV3DefaultStaysLegacy(t *testing.T) {
	g := v3Field(t)
	opt := Options{ErrorBound: 1e-6, Interpolation: interp.Cubic}
	b64, err := Compress(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	b32, err := Compress(grid.Narrow(g), opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		blob []byte
		want int
	}{{b64, Version1}, {b32, Version}} {
		a, err := NewArchive(c.blob)
		if err != nil {
			t.Fatal(err)
		}
		if a.FormatVersion() != c.want {
			t.Fatalf("writer emitted v%d, want v%d", a.FormatVersion(), c.want)
		}
	}
}

// TestV3ReservedPolicyRejected: there is no policy 2 (it was once held for
// zstd). It is refused as the policy byte of a v3 header, and block tag 4,
// which stays reserved in the format, is refused by the block decoder —
// never an undecodable archive, never wrong data.
func TestV3ReservedPolicyRejected(t *testing.T) {
	blob := readV3Fixture(t)
	// 8-byte length prefix, then magic, version, kind, rank, scalar, three
	// u32 extents, eb and maxAbs (f64): the policy byte follows.
	const policyAt = 8 + 4 + 4 + 3*4 + 8 + 8
	if blob[policyAt] != 1 {
		t.Fatalf("byte %d is %d, not the policy byte of an auto archive", policyAt, blob[policyAt])
	}
	bad := append([]byte(nil), blob...)
	bad[policyAt] = 2
	if _, err := NewArchive(bad); err == nil || !strings.Contains(err.Error(), "unknown codec policy 2") {
		t.Fatalf("header with policy byte 2: err = %v; want unknown codec policy", err)
	}
	// Policy 0 (deflate) in a v3 header is legal: another writer need not
	// minimize the version, and the byte does not steer decoding.
	bad[policyAt] = 0
	if _, err := NewArchive(bad); err != nil {
		t.Fatalf("header with policy byte 0: %v", err)
	}
	if _, err := codec.DecodeBlock([]byte{4, 0, 0, 0}, 3); err == nil || !strings.Contains(err.Error(), "reserved") {
		t.Fatalf("block tag 4: err = %v; want the reserved-method error", err)
	}
	// The same tag patched over the archive's first Huffman block: the
	// archive still opens (blocks are read lazily), but decoding it fails.
	a, err := NewArchive(blob)
	if err != nil {
		t.Fatal(err)
	}
	bad = append(bad[:0], blob...)
	patched := false
	for l := 0; l < a.h.levels && !patched; l++ {
		for _, off := range a.h.blockOff[l] {
			if bad[off] == 5 {
				bad[off] = 4
				patched = true
				break
			}
		}
	}
	if !patched {
		t.Fatal("fixture has no Huffman block")
	}
	b, err := NewArchive(bad)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.RetrieveAll(); err == nil || !strings.Contains(err.Error(), "reserved") {
		t.Fatalf("archive with a tag-4 block: err = %v; want the reserved-method error", err)
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
