package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/grid"
)

// TestContainerBytesPinned pins the bytes store.Writer emits for a fixed
// field in 8³ chunks: preamble, chunk archives, index and footer. "v1" holds
// one float64 dataset, so its index is version 1; "v2" adds a float32
// dataset, which forces the version 2 index with its scalar bytes. Any
// change to a container codec that moves a byte fails here.
func TestContainerBytesPinned(t *testing.T) {
	want := map[string]string{
		"v1": "21852aa5eaf81a0e490c57aa0b0456bdab49204cbf60ededf3b29bc78cd50e9e",
		"v2": "b98d05670bb61584f181b8c5f64ee399c4f53f418512a3bbef535184318a9024",
	}
	g := testField(t, grid.Shape{20, 12, 10})
	opt := WriteOptions{ErrorBound: 1e-4 * g.ValueRange(), ChunkShape: grid.Shape{8, 8, 8}}
	for _, tc := range []struct {
		name    string
		f32     bool
		version uint8
	}{{"v1", false, Version1}, {"v2", true, Version}} {
		var buf bytes.Buffer
		w, err := NewWriter(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if err := Add(w, "field", g, opt); err != nil {
			t.Fatal(err)
		}
		if tc.f32 {
			if err := Add(w, "field32", grid.Narrow(g), opt); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if v := buf.Bytes()[buf.Len()-footerSize+20]; v != tc.version {
			t.Fatalf("%s container's footer declares version %d", tc.name, v)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); got != want[tc.name] {
			t.Errorf("%s container digest drifted:\n got  %s\n want %s", tc.name, got, want[tc.name])
		}
	}
}
