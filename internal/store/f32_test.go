package store

import (
	"bytes"
	"math"
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/grid"
)

func testField32(t testing.TB, shape grid.Shape) *grid.Grid[float32] {
	t.Helper()
	return grid.Narrow(testField(t, shape))
}

// TestFloat32PackRetrieve packs a float32 dataset, checks the index
// records the scalar type, and asserts whole-dataset and region
// retrievals honor the bound natively.
func TestFloat32PackRetrieve(t *testing.T) {
	g := testField32(t, grid.Shape{40, 48, 36})
	eb := 1e-4 * g.ValueRange()
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := Add(w, "field", g, WriteOptions{ErrorBound: eb, ChunkShape: grid.Shape{16, 16, 16}}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()
	// A float32 dataset forces the v2 index; the preamble stays at the
	// unchanged framing version.
	if got := blob[len(blob)-footerSize+20]; got != Version {
		t.Fatalf("footer version = %d, want %d", got, Version)
	}
	if blob[4] != Version1 {
		t.Fatalf("preamble version = %d, want %d", blob[4], Version1)
	}
	s, err := Open(bytes.NewReader(blob), int64(len(blob)))
	if err != nil {
		t.Fatal(err)
	}
	info := s.Datasets()
	if len(info) != 1 || info[0].Scalar != core.Float32 {
		t.Fatalf("dataset info = %+v, want one float32 dataset", info)
	}

	full, err := s.RetrieveDataset("field", 0)
	if err != nil {
		t.Fatal(err)
	}
	if full.Scalar() != core.Float32 {
		t.Errorf("region scalar = %v", full.Scalar())
	}
	worst := 0.0
	recon := full.DataFloat32()
	for i, v := range g.Data() {
		if d := math.Abs(float64(v) - float64(recon[i])); d > worst {
			worst = d
		}
	}
	if worst > eb {
		t.Errorf("full extract error %g > bound %g", worst, eb)
	}

	// ROI at a coarse bound, then the same ROI tighter: the cached chunks
	// must refine and still honor the guarantee.
	lo, hi := []int{8, 8, 8}, []int{33, 30, 29}
	for _, bound := range []float64{eb * 256, eb * 4, eb} {
		reg, err := s.RetrieveRegion("field", lo, hi, bound)
		if err != nil {
			t.Fatal(err)
		}
		if reg.GuaranteedError() > bound {
			t.Errorf("bound %g: guarantee %g exceeds request", bound, reg.GuaranteedError())
		}
		data := reg.DataFloat32()
		shape := reg.Shape()
		idx := 0
		worst := 0.0
		for x := lo[0]; x < hi[0]; x++ {
			for y := lo[1]; y < hi[1]; y++ {
				for z := lo[2]; z < hi[2]; z++ {
					d := math.Abs(float64(g.At(x, y, z)) - float64(data[idx]))
					if d > worst {
						worst = d
					}
					idx++
				}
			}
		}
		if idx != shape[0]*shape[1]*shape[2] {
			t.Fatalf("region shape mismatch")
		}
		if worst > reg.GuaranteedError() {
			t.Errorf("bound %g: region error %g > guarantee %g", bound, worst, reg.GuaranteedError())
		}
	}
}

// TestMixedScalarContainer packs one float64 and one float32 dataset into
// the same container and retrieves both at their native widths.
func TestMixedScalarContainer(t *testing.T) {
	g64 := testField(t, grid.Shape{24, 24, 24})
	g32 := testField32(t, grid.Shape{20, 28, 24})
	eb64 := 1e-5 * g64.ValueRange()
	eb32 := 1e-4 * g32.ValueRange()
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := Add(w, "wide", g64, WriteOptions{ErrorBound: eb64}); err != nil {
		t.Fatal(err)
	}
	if err := Add(w, "narrow", g32, WriteOptions{ErrorBound: eb32}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	s, err := Open(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	info := s.Datasets()
	if info[0].Scalar != core.Float64 || info[1].Scalar != core.Float32 {
		t.Fatalf("scalars = %v, %v", info[0].Scalar, info[1].Scalar)
	}
	wide, err := s.RetrieveDataset("wide", 0)
	if err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(wide.Data(), g64.Data()); d > eb64 {
		t.Errorf("wide error %g > %g", d, eb64)
	}
	narrow, err := s.RetrieveDataset("narrow", 0)
	if err != nil {
		t.Fatal(err)
	}
	recon := narrow.DataFloat32()
	for i, v := range g32.Data() {
		if d := math.Abs(float64(v) - float64(recon[i])); d > eb32 {
			t.Fatalf("narrow point %d error %g > %g", i, d, eb32)
		}
	}
}

// TestV1ContainerCompat opens a container written before the v2 format
// (pinned in testdata) and asserts its float64 dataset still decodes
// within bound.
func TestV1ContainerCompat(t *testing.T) {
	blob, err := os.ReadFile("testdata/v1_container.ipcs")
	if err != nil {
		t.Fatal(err)
	}
	if blob[4] != Version1 {
		t.Fatalf("fixture preamble version = %d, want %d", blob[4], Version1)
	}
	s, err := Open(bytes.NewReader(blob), int64(len(blob)))
	if err != nil {
		t.Fatal(err)
	}
	info := s.Datasets()
	if len(info) != 1 || info[0].Scalar != core.Float64 || info[0].Name != "field" {
		t.Fatalf("dataset info = %+v", info)
	}
	// Regenerate the deterministic field the fixture was packed from.
	shape := grid.Shape{20, 24, 28}
	g := grid.MustNew[float64](shape)
	data := g.Data()
	rng := uint64(0x243F6A8885A308D3)
	for i := range data {
		rng += 0x9E3779B97F4A7C15
		z := rng
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		z ^= z >> 31
		data[i] = float64(i%97)*0.01 + float64(z>>11)/float64(1<<53)*1e-3
	}
	full, err := s.RetrieveDataset("field", 0)
	if err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(full.Data(), g.Data()); d > 1e-4 {
		t.Errorf("v1 container extract error %g > 1e-4", d)
	}
	reg, err := s.RetrieveRegion("field", []int{4, 4, 4}, []int{18, 20, 22}, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if reg.GuaranteedError() > 1e-3 {
		t.Errorf("v1 region guarantee %g > 1e-3", reg.GuaranteedError())
	}
	// Re-packing the same data with today's writer must reproduce the v1
	// fixture byte for byte: float64-only containers still emit version 1.
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := Add(w, "field", g, WriteOptions{ErrorBound: 1e-4, ChunkShape: grid.Shape{16, 16, 16}}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), blob) {
		t.Errorf("re-packed float64 container differs from the v1 fixture (%d vs %d bytes)", buf.Len(), len(blob))
	}
}
