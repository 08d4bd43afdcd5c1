package sperr

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/grid"
)

func field(shape grid.Shape) *grid.Grid[float64] {
	g := grid.MustNew[float64](shape)
	data := g.Data()
	strides := shape.Strides()
	for i := range data {
		v := 0.0
		rem := i
		for d := 0; d < len(shape); d++ {
			c := float64(rem/strides[d]) / float64(shape[d])
			rem %= strides[d]
			v += math.Sin(6*c) + 0.3*math.Cos(15*c)
		}
		data[i] = v
	}
	return g
}

func TestRoundTripBounds(t *testing.T) {
	c := New()
	for _, shape := range []grid.Shape{{128}, {33, 31}, {18, 20, 22}} {
		for _, eb := range []float64{1e-2, 1e-5, 1e-8} {
			g := field(shape)
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
					t.Fatalf("%v eb=%g: error %g at %d", shape, eb,
						math.Abs(g.Data()[i]-rec.Data()[i]), i)
				}
			}
		}
	}
}

// TestOutlierCorrectionKicksIn: a field with a sharp discontinuity defeats
// the wavelet pass locally; the correction stage must still bound every
// point.
func TestOutlierCorrectionKicksIn(t *testing.T) {
	c := New()
	shape := grid.Shape{32, 32}
	g := field(shape)
	// Step discontinuity.
	for i := 0; i < 32; i++ {
		for j := 16; j < 32; j++ {
			g.Set(g.At(i, j)+5, i, j)
		}
	}
	eb := 1e-6
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
			t.Fatalf("error %g at %d", math.Abs(g.Data()[i]-rec.Data()[i]), i)
		}
	}
}

func TestHugeValuesEscapeCoefficientQuantizer(t *testing.T) {
	c := New()
	shape := grid.Shape{16, 16}
	g := grid.MustNew[float64](shape)
	for i := range g.Data() {
		g.Data()[i] = 1e15 // large constant: coefficients overflow the index window
	}
	eb := 1e-9
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
			t.Fatalf("error at %d: %g", i, math.Abs(g.Data()[i]-rec.Data()[i]))
		}
	}
}

func TestRejectsGarbageAndBadBound(t *testing.T) {
	c := New()
	if _, err := c.Decompress([]byte{1}, grid.Shape{4}); err == nil {
		t.Error("garbage must fail")
	}
	g := field(grid.Shape{8, 8})
	if _, err := c.Compress(g, -1); err == nil {
		t.Error("negative bound must fail")
	}
}

func TestSmoothDataHasFewOutliers(t *testing.T) {
	// On a genuinely smooth field the wavelet pass should bound nearly all
	// points itself; the archive must stay well below raw size.
	c := New()
	g := field(grid.Shape{32, 32, 32})
	blob, err := c.Compress(g, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	if len(blob) > g.Len()*8/2 {
		t.Errorf("sperr blob %d bytes vs raw %d — outlier storm?", len(blob), g.Len()*8)
	}
}

// TestCompressBytesPinned pins the blob Compress writes for a fixed field
// whose spike escapes the coefficient quantizer.
func TestCompressBytesPinned(t *testing.T) {
	const want = "f2353d491a62ce8bd7675aca0f11058478459d22edfaf8fe38d771295d971560"
	g := field(grid.Shape{18, 20, 22})
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
