package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"os"
	"strings"
	"testing"

	"repro/internal/grid"
	"repro/internal/interp"
)

// TestV1ArchiveCompat opens a version-1 float64 archive pinned on disk
// before the scalar-generic refactor and asserts the v2 code path decodes
// it bit-identically: same header interpretation, same reconstruction, and
// the same bytes the current encoder would produce for the same input.
func TestV1ArchiveCompat(t *testing.T) {
	blob, err := os.ReadFile("testdata/v1_3d_cubic.ipc")
	if err != nil {
		t.Fatal(err)
	}
	// The fixture is the 3Dx17x19x23/cubic golden dataset, so its digest
	// must match the pinned golden digest — this proves the fixture really
	// is a pre-refactor blob and not something regenerated later.
	sum := sha256.Sum256(blob)
	if got, want := hex.EncodeToString(sum[:]), goldenDigests["3Dx17x19x23/cubic"]; got != want {
		t.Fatalf("fixture drifted from the pinned v1 bytes:\n got  %s\n want %s", got, want)
	}
	a, err := NewArchive(blob)
	if err != nil {
		t.Fatal(err)
	}
	if a.Scalar() != Float64 {
		t.Errorf("v1 archive scalar = %v, want Float64", a.Scalar())
	}
	if a.FormatVersion() != Version1 {
		t.Errorf("FormatVersion = %d, want %d", a.FormatVersion(), Version1)
	}
	g := goldenField(t, grid.Shape{17, 19, 23})
	res, err := a.RetrieveAll()
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range res.Data() {
		if d := v - g.Data()[i]; d > 1e-6 || d < -1e-6 {
			t.Fatalf("point %d off by %g", i, d)
		}
	}
	// Progressive retrieval of the v1 blob must work too.
	coarse, err := a.RetrieveErrorBound(1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if got := maxAbsDiff(g.Data(), coarse.Data()); got > coarse.GuaranteedError() {
		t.Errorf("v1 coarse retrieval error %g > guarantee %g", got, coarse.GuaranteedError())
	}
	// The current encoder must still produce those exact bytes for the
	// same input — v1 round-trips through the v2 code unchanged.
	re, err := Compress(g, Options{ErrorBound: 1e-6, Interpolation: interp.Cubic})
	if err != nil {
		t.Fatal(err)
	}
	reSum := sha256.Sum256(re)
	if hex.EncodeToString(reSum[:]) != hex.EncodeToString(sum[:]) {
		t.Error("re-encoding the fixture input no longer reproduces the v1 bytes")
	}
}

// TestV1RejectsFloat32Scalar asserts a version-1 header that claims a
// non-float64 scalar (impossible for genuine v1 writers) is rejected
// rather than misread.
func TestV1RejectsFloat32Scalar(t *testing.T) {
	blob, err := os.ReadFile("testdata/v1_3d_cubic.ipc")
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), blob...)
	// Header layout after the 8-byte length prefix: magic u32, version u8,
	// kind u8, ndims u8, scalar u8.
	bad[8+7] = uint8(Float32)
	if _, err := NewArchive(bad); err == nil {
		t.Fatal("v1 archive with float32 scalar byte accepted")
	}
}

// TestV2RejectsNegativeMaxAbs asserts a crafted v2 header whose magnitude
// field is negative is rejected at open: a negative value would flip the
// rounding slack's sign and silently loosen truncated-plan guarantees.
func TestV2RejectsNegativeMaxAbs(t *testing.T) {
	g := grid.Narrow(goldenField(t, grid.Shape{17, 19, 23}))
	blob, err := Compress(g, Options{ErrorBound: 1e-6, Interpolation: interp.Cubic})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewArchive(blob); err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), blob...)
	// v2 header layout after the 8-byte length prefix: magic u32, version,
	// kind, rank, scalar (u8 each), rank×u32 shape, f64 eb, f32 maxAbs.
	off := 8 + 4 + 4 + 3*4 + 8 + 3 // sign bit lives in the last maxAbs byte
	bad[off] |= 0x80
	if _, err := NewArchive(bad); err == nil {
		t.Fatal("v2 archive with negative maxAbs accepted")
	}
}

// TestHeaderRejectsTrailingBytes: a header whose length prefix claims
// bytes its fields do not use is refused, like a container index or a
// manifest with trailing bytes, in every format version.
func TestHeaderRejectsTrailingBytes(t *testing.T) {
	v2, err := Compress(grid.Narrow(goldenField(t, grid.Shape{17, 19, 23})), Options{ErrorBound: 1e-3, Interpolation: interp.Cubic})
	if err != nil {
		t.Fatal(err)
	}
	blobs := map[string][]byte{"v2": v2}
	for name, path := range map[string]string{"v1": "testdata/v1_3d_cubic.ipc", "v3": v3Fixture} {
		if blobs[name], err = os.ReadFile(path); err != nil {
			t.Fatal(err)
		}
	}
	for name, blob := range blobs {
		hlen := binary.LittleEndian.Uint64(blob)
		bad := append([]byte(nil), blob[:8+hlen]...)
		bad = append(bad, 1, 2, 3, 4, 5)
		bad = append(bad, blob[8+hlen:]...)
		binary.LittleEndian.PutUint64(bad, hlen+5)
		_, err := NewArchive(bad)
		if err == nil || !strings.Contains(err.Error(), "5 trailing bytes after archive header") {
			t.Errorf("%s header with 5 trailing bytes: err = %v", name, err)
		}
	}
}
