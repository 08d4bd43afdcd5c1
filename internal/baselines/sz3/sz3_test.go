package sz3

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/datagen"
	"repro/internal/grid"
	"repro/internal/interp"
)

func wave2D(shape grid.Shape) *grid.Grid[float64] {
	g := grid.MustNew[float64](shape)
	data := g.Data()
	strides := shape.Strides()
	for i := range data {
		v := 0.0
		rem := i
		for d := 0; d < len(shape); d++ {
			c := float64(rem/strides[d]) / float64(shape[d])
			rem %= strides[d]
			v += math.Sin(4*math.Pi*c) + 0.1*math.Sin(19*c)
		}
		data[i] = v
	}
	return g
}

func TestRoundTripBounds(t *testing.T) {
	c := New()
	for _, shape := range []grid.Shape{{64}, {31, 33}, {12, 13, 14}} {
		for _, eb := range []float64{1e-2, 1e-5, 1e-9} {
			g := wave2D(shape)
			blob, err := c.Compress(g, eb)
			if err != nil {
				t.Fatal(err)
			}
			rec, err := c.Decompress(blob, shape)
			if err != nil {
				t.Fatal(err)
			}
			for i := range g.Data() {
				if math.Abs(g.Data()[i]-rec.Data()[i]) > eb {
					t.Fatalf("%v eb=%g: error at %d", shape, eb, i)
				}
			}
		}
	}
}

func TestLinearKind(t *testing.T) {
	c := &Codec{Kind: interp.Linear}
	g := wave2D(grid.Shape{20, 20})
	blob, err := c.Compress(g, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := c.Decompress(blob, g.Shape())
	if err != nil {
		t.Fatal(err)
	}
	for i := range g.Data() {
		if math.Abs(g.Data()[i]-rec.Data()[i]) > 1e-4 {
			t.Fatal("linear kind violates bound")
		}
	}
}

func TestCubicBeatsLinearOnSmoothData(t *testing.T) {
	// The paper (after SZ3/Zhao et al. 2021) picks cubic because it wins on
	// smooth fields — use the Density stand-in, which is smooth at cell
	// level like real SDRBench data.
	ds, err := datagen.Generate("Density", 8)
	if err != nil {
		t.Fatal(err)
	}
	g := ds.Grid
	eb := 1e-6 * g.ValueRange()
	cubic, err := New().Compress(g, eb)
	if err != nil {
		t.Fatal(err)
	}
	linear, err := (&Codec{Kind: interp.Linear}).Compress(g, eb)
	if err != nil {
		t.Fatal(err)
	}
	if len(cubic) >= len(linear) {
		t.Errorf("cubic %d bytes >= linear %d on smooth data", len(cubic), len(linear))
	}
}

func TestDecompressRejectsWrongShape(t *testing.T) {
	c := New()
	g := wave2D(grid.Shape{16, 16})
	blob, _ := c.Compress(g, 1e-4)
	if _, err := c.Decompress(blob, grid.Shape{15, 16}); err == nil {
		t.Error("wrong shape must error")
	}
}

func TestSpikeOutlier(t *testing.T) {
	c := New()
	g := wave2D(grid.Shape{32, 32})
	g.Data()[100] = 1e17
	eb := 1e-10
	blob, err := c.Compress(g, eb)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := c.Decompress(blob, g.Shape())
	if err != nil {
		t.Fatal(err)
	}
	if rec.Data()[100] != 1e17 {
		t.Errorf("spike reconstructed as %v", rec.Data()[100])
	}
	for i := range g.Data() {
		if d := math.Abs(g.Data()[i] - rec.Data()[i]); d > eb {
			t.Fatalf("error %g at %d", d, i)
		}
	}
}

// TestCompressBytesPinned pins the blob Compress writes for a fixed field
// whose spike takes the outlier path.
func TestCompressBytesPinned(t *testing.T) {
	const want = "f00f8ce8e45149eb78c9cd363108832e8c3fa30199892fdadf0d86ac37f84a58"
	g := wave2D(grid.Shape{33, 29})
	g.Data()[100] = 1e17
	blob, err := New().Compress(g, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(blob)
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("blob digest drifted:\n got  %s\n want %s", got, want)
	}
}
