package cas

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// TestManifestBytesPinned pins EncodeManifest's bytes for a fixed rank-3
// manifest: a float32 scalar code, a non-zero time step and distinct tile
// sizes, so every field lands somewhere a moved byte shows.
func TestManifestBytesPinned(t *testing.T) {
	const want = "51e75be7216b19a4139d30b4b9f0049565f0ad876c8ad18437db8e2e9a167d1d"
	m := &Manifest{
		Field:      "density",
		T:          7,
		Shape:      []int{20, 12, 10},
		Chunk:      []int{8, 8, 8},
		Scalar:     1,
		ErrorBound: 1.5e-4,
	}
	for i := 0; i < 3*2*2; i++ {
		m.Tiles = append(m.Tiles, TileRef{Score: ScoreOf(tileBytes("pin", 100+i)), Size: int64(1000 + 37*i)})
	}
	raw, err := EncodeManifest(m)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(raw)
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("manifest digest drifted:\n got  %s\n want %s", got, want)
	}
}
