package backend

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func testBlob(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(int(seed) + 31*i)
	}
	return b
}

// checkBackend exercises the Backend contract shared by every
// implementation: listing, sizing, in-bounds reads, and loud failures on
// unknown names.
func checkBackend(t *testing.T, b Backend, want map[string][]byte) {
	t.Helper()
	names, err := b.List()
	if err != nil {
		t.Fatalf("List: %v", err)
	}
	if len(names) != len(want) {
		t.Fatalf("List = %v, want the %d containers of %v", names, len(want), want)
	}
	for _, name := range names {
		blob, ok := want[name]
		if !ok {
			t.Fatalf("List returned unexpected %q", name)
		}
		size, err := b.Size(name)
		if err != nil {
			t.Fatalf("Size(%q): %v", name, err)
		}
		if size != int64(len(blob)) {
			t.Fatalf("Size(%q) = %d, want %d", name, size, len(blob))
		}
		p := make([]byte, len(blob)/2)
		if _, err := b.ReadAt(name, p, int64(len(blob)/4)); err != nil {
			t.Fatalf("ReadAt(%q): %v", name, err)
		}
		if !reflect.DeepEqual(p, blob[len(blob)/4:len(blob)/4+len(p)]) {
			t.Fatalf("ReadAt(%q) returned wrong bytes", name)
		}
		if _, err := b.ReadAt(name, make([]byte, 10), size-5); err == nil {
			t.Errorf("ReadAt(%q) past the end succeeded", name)
		}
	}
	if _, err := b.Size("no-such-container"); err == nil {
		t.Error("Size of unknown container succeeded")
	}
	if _, err := b.ReadAt("no-such-container", make([]byte, 1), 0); err == nil {
		t.Error("ReadAt of unknown container succeeded")
	}
}

// dirWith writes each blob under its name into a fresh temporary
// directory and serves the directory.
func dirWith(t testing.TB, blobs map[string][]byte) *Dir {
	t.Helper()
	dir := t.TempDir()
	for name, blob := range blobs {
		if err := os.WriteFile(filepath.Join(dir, name), blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	d, err := NewDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

func TestDirBackend(t *testing.T) {
	dir := t.TempDir()
	want := map[string][]byte{"a.ipcs": testBlob(256, 1), "b.ipcs": testBlob(300, 2)}
	for name, blob := range want {
		if err := os.WriteFile(filepath.Join(dir, name), blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// Hidden files and subdirectories are not containers.
	if err := os.WriteFile(filepath.Join(dir, ".hidden"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(dir, "sub"), 0o755); err != nil {
		t.Fatal(err)
	}
	// Symlinks to regular files are containers (the symlinked-data-volume
	// layout); dangling symlinks are not.
	outside := filepath.Join(t.TempDir(), "volume.ipcs")
	want["link.ipcs"] = testBlob(128, 3)
	if err := os.WriteFile(outside, want["link.ipcs"], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Symlink(outside, filepath.Join(dir, "link.ipcs")); err != nil {
		t.Fatal(err)
	}
	if err := os.Symlink(filepath.Join(dir, "gone"), filepath.Join(dir, "dangling.ipcs")); err != nil {
		t.Fatal(err)
	}
	d, err := NewDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	checkBackend(t, d, want)
	// Names must not escape the directory.
	for _, bad := range []string{"../a.ipcs", "sub/x", "", "."} {
		if _, err := d.Size(bad); err == nil {
			t.Errorf("Size(%q) escaped the directory", bad)
		}
	}
	if _, err := NewDir(filepath.Join(dir, "missing")); err == nil ||
		!strings.Contains(err.Error(), "no such directory") {
		t.Errorf("NewDir on missing dir: %v", err)
	}
}

func TestFileBackend(t *testing.T) {
	dir := t.TempDir()
	blob := testBlob(512, 7)
	path := filepath.Join(dir, "c.ipcs")
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := NewFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if f.Name() != "c.ipcs" {
		t.Fatalf("Name = %q", f.Name())
	}
	checkBackend(t, f, map[string][]byte{"c.ipcs": blob})

	if _, err := NewFile(filepath.Join(dir, "missing.ipcs")); err == nil ||
		!strings.Contains(err.Error(), "no such container") {
		t.Errorf("NewFile on missing path: %v", err)
	}
	if _, err := NewFile(dir); err == nil || !strings.Contains(err.Error(), "not a container file") {
		t.Errorf("NewFile on a directory: %v", err)
	}
}

func TestOpenContainerAdapter(t *testing.T) {
	blob := testBlob(128, 3)
	m := dirWith(t, map[string][]byte{"x": blob})
	c, err := OpenContainer(m, "x")
	if err != nil {
		t.Fatal(err)
	}
	if c.Size() != 128 {
		t.Fatalf("Size=%d", c.Size())
	}
	p := make([]byte, 16)
	if _, err := c.ReadAt(p, 100); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p, blob[100:116]) {
		t.Error("adapter read wrong bytes")
	}
	if _, err := OpenContainer(m, "y"); err == nil {
		t.Error("OpenContainer on unknown name succeeded")
	}
}

func TestOpenSpec(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "c.ipcs")
	if err := os.WriteFile(path, testBlob(64, 9), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "my file.ipcs"), testBlob(64, 10), 0o644); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		spec     string
		wantName string
		wantKind string
	}{
		{path, "c.ipcs", "*backend.File"},
		{"file://" + path, "c.ipcs", "*backend.File"},
		// Percent-escapes and the file://localhost/ form decode per RFC 8089.
		{"file://" + dir + "/my%20file.ipcs", "my file.ipcs", "*backend.File"},
		{"file://localhost" + path, "c.ipcs", "*backend.File"},
		{dir, "", "*backend.Dir"},
		{"file://" + dir, "", "*backend.Dir"},
		{"http://example.invalid:8080", "", "*backend.HTTP"},
		{"http://example.invalid:8080/v1/containers/c.ipcs", "c.ipcs", "*backend.HTTP"},
		{"https://example.invalid/data/", "", "*backend.HTTP"},
		{"https://example.invalid/data/c.ipcs", "c.ipcs", "*backend.HTTP"},
	} {
		b, name, err := Open(tc.spec)
		if err != nil {
			t.Errorf("Open(%q): %v", tc.spec, err)
			continue
		}
		if name != tc.wantName {
			t.Errorf("Open(%q) name = %q, want %q", tc.spec, name, tc.wantName)
		}
		if got := reflect.TypeOf(b).String(); got != tc.wantKind {
			t.Errorf("Open(%q) kind = %s, want %s", tc.spec, got, tc.wantKind)
		}
		Close(b)
	}

	// The errors a CLI surfaces directly must name the problem, not dump a
	// raw OS error.
	if _, _, err := Open(filepath.Join(dir, "missing.ipcs")); err == nil ||
		!strings.Contains(err.Error(), "no such container") {
		t.Errorf("Open(missing) = %v, want a 'no such container' error", err)
	}
	if _, _, err := Open("ftp://host/x"); err == nil ||
		!strings.Contains(err.Error(), "unsupported scheme") {
		t.Errorf("Open(ftp) = %v, want an 'unsupported scheme' error", err)
	}
	if _, _, err := Open("file://otherhost/data/c.ipcs"); err == nil ||
		!strings.Contains(err.Error(), "names host") {
		t.Errorf("Open(file with foreign host) = %v, want a host error", err)
	}
	if _, _, err := Open(""); err == nil {
		t.Error("Open(\"\") succeeded")
	}
}
