package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestReadRawRejectsPartialElements pins the contract that raw inputs
// whose size is not a whole number of elements error out instead of being
// silently truncated.
func TestReadRawRejectsPartialElements(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.bin")
	if err := os.WriteFile(path, make([]byte, 13), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, width := range []int{4, 8} {
		if _, err := readRaw(path, width); err == nil {
			t.Errorf("width %d: partial trailing element accepted", width)
		} else if !strings.Contains(err.Error(), "not a multiple") {
			t.Errorf("width %d: unhelpful error %v", width, err)
		}
	}
	if _, err := readRaw(path, 13); err != nil {
		t.Errorf("exact multiple rejected: %v", err)
	}
}

// TestFloatFileRoundTrip checks both element widths survive the write/read
// cycle bit-exactly.
func TestFloatFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	p64 := filepath.Join(dir, "d.f64")
	p32 := filepath.Join(dir, "d.f32")
	w64 := []float64{0, 1.5, -2.25, 1e300, -1e-300}
	w32 := []float32{0, 1.5, -2.25, 1e30, -1e-30}
	if err := writeFloats(p64, w64); err != nil {
		t.Fatal(err)
	}
	if err := writeFloats(p32, w32); err != nil {
		t.Fatal(err)
	}
	r64, err := readFloats[float64](p64)
	if err != nil {
		t.Fatal(err)
	}
	r32, err := readFloats[float32](p32)
	if err != nil {
		t.Fatal(err)
	}
	for i := range w64 {
		if r64[i] != w64[i] {
			t.Errorf("f64[%d] = %v, want %v", i, r64[i], w64[i])
		}
	}
	for i := range w32 {
		if r32[i] != w32[i] {
			t.Errorf("f32[%d] = %v, want %v", i, r32[i], w32[i])
		}
	}
	// A float32 file misread at the wrong width must fail loudly, not
	// decode garbage: 5 elements * 4 bytes = 20 bytes, not divisible by 8.
	if _, err := readFloats[float64](p32); err == nil {
		t.Error("reading a 20-byte f32 file as f64 should error")
	}
}

// TestOpenContainerErrors pins the CLI contract that opening a container
// surfaces actionable errors — not raw OS errors — for the common
// failure shapes: a missing path, a file too small to be a container,
// garbage bytes, and an unsupported URL scheme.
func TestOpenContainerErrors(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		name, spec, want string
	}{
		{"missing file", filepath.Join(dir, "nope.ipcs"), "no such container"},
		{"unsupported scheme", "gopher://host/c.ipcs", "unsupported scheme"},
	}
	tiny := filepath.Join(dir, "tiny.ipcs")
	if err := os.WriteFile(tiny, []byte("IPC"), 0o644); err != nil {
		t.Fatal(err)
	}
	cases = append(cases, struct{ name, spec, want string }{"undersized file", tiny, "smaller than"})
	garbage := filepath.Join(dir, "garbage.ipcs")
	if err := os.WriteFile(garbage, make([]byte, 4096), 0o644); err != nil {
		t.Fatal(err)
	}
	cases = append(cases, struct{ name, spec, want string }{"garbage file", garbage, "container"})

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s, err := openContainer(c.spec)
			if err == nil {
				s.Close()
				t.Fatalf("openContainer(%q) succeeded", c.spec)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("openContainer(%q) = %q, want it to mention %q", c.spec, err, c.want)
			}
		})
	}
}

// TestOpenContainerURLForms checks that every spec form the CLI documents
// — bare path, file:// URL, and an empty-directory spec — resolves (or
// errors) through one code path.
func TestOpenContainerURLForms(t *testing.T) {
	dir := t.TempDir()
	// An empty directory addresses zero containers; the error must say so
	// rather than pretending the path is malformed.
	if _, err := openContainer(dir); err == nil ||
		!strings.Contains(err.Error(), "0 containers") {
		t.Errorf("openContainer(empty dir) = %v", err)
	}
	// file:// of a missing path keeps the friendly error.
	if _, err := openContainer("file://" + filepath.Join(dir, "x.ipcs")); err == nil ||
		!strings.Contains(err.Error(), "no such container") {
		t.Errorf("openContainer(file:// missing) = %v", err)
	}
}

func TestParseDtype(t *testing.T) {
	for _, c := range []struct {
		in   string
		want string
		err  bool
	}{
		{"f32", "float32", false},
		{"float32", "float32", false},
		{"f64", "float64", false},
		{"float64", "float64", false},
		{"", "float64", false}, // def passed below
		{"f16", "", true},
	} {
		got, err := parseDtype(c.in, 0) // 0 == ipcomp.Float64
		if c.err {
			if err == nil {
				t.Errorf("%q: expected error", c.in)
			}
			continue
		}
		if err != nil {
			t.Errorf("%q: %v", c.in, err)
		} else if got.String() != c.want {
			t.Errorf("%q -> %v, want %s", c.in, got, c.want)
		}
	}
}
