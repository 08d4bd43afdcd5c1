// Package lossy_test cross-validates every lossy.Codec implementation
// against the same contract: round-trip within the error bound on smooth
// multi-scale fields, across shapes and bounds.
package lossy_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/baselines/lossy"
	"repro/internal/baselines/mgard"
	"repro/internal/baselines/sperr"
	"repro/internal/baselines/sz3"
	"repro/internal/baselines/zfp"
	"repro/internal/grid"
)

func codecs() []lossy.Codec {
	return []lossy.Codec{sz3.New(), zfp.New(), mgard.New(), sperr.New()}
}

func smoothField(shape grid.Shape, seed int64) *grid.Grid[float64] {
	g := grid.MustNew[float64](shape)
	r := rand.New(rand.NewSource(seed))
	n1 := r.Float64()*4 + 1
	n2 := r.Float64()*9 + 3
	data := g.Data()
	strides := shape.Strides()
	for i := range data {
		v := 0.0
		rem := i
		for d := 0; d < len(shape); d++ {
			c := float64(rem/strides[d]) / float64(shape[d])
			rem %= strides[d]
			v += math.Sin(n1*math.Pi*c) + 0.3*math.Cos(n2*math.Pi*c+1)
		}
		data[i] = v
	}
	return g
}

func maxErr(a, b []float64) float64 {
	worst := 0.0
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > worst {
			worst = d
		}
	}
	return worst
}

func TestAllCodecsRespectBound(t *testing.T) {
	shapes := []grid.Shape{{200}, {40, 37}, {20, 22, 24}}
	bounds := []float64{1e-2, 1e-4, 1e-7}
	for _, c := range codecs() {
		for _, shape := range shapes {
			for _, eb := range bounds {
				g := smoothField(shape, 11)
				blob, err := c.Compress(g, eb)
				if err != nil {
					t.Fatalf("%s %v eb=%g: compress: %v", c.Name(), shape, eb, err)
				}
				rec, err := c.Decompress(blob, shape)
				if err != nil {
					t.Fatalf("%s %v eb=%g: decompress: %v", c.Name(), shape, eb, err)
				}
				if got := maxErr(g.Data(), rec.Data()); got > eb {
					t.Errorf("%s %v eb=%g: max error %g", c.Name(), shape, eb, got)
				}
			}
		}
	}
}

func TestAllCodecsCompressSmoothData(t *testing.T) {
	shape := grid.Shape{32, 32, 32}
	g := smoothField(shape, 5)
	raw := g.Len() * 8
	for _, c := range codecs() {
		blob, err := c.Compress(g, 1e-4)
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		if len(blob) > raw/2 {
			t.Errorf("%s: %d bytes for %d raw (CR %.1f) — not compressing",
				c.Name(), len(blob), raw, float64(raw)/float64(len(blob)))
		}
	}
}

func TestAllCodecsRejectBadBound(t *testing.T) {
	g := smoothField(grid.Shape{8, 8}, 1)
	for _, c := range codecs() {
		if _, err := c.Compress(g, 0); err == nil {
			t.Errorf("%s accepted eb=0", c.Name())
		}
		if _, err := c.Compress(g, math.Inf(1)); err == nil {
			t.Errorf("%s accepted eb=inf", c.Name())
		}
	}
}

func TestAllCodecsRejectGarbage(t *testing.T) {
	for _, c := range codecs() {
		if _, err := c.Decompress([]byte{1, 2, 3}, grid.Shape{4}); err == nil {
			t.Errorf("%s decompressed garbage", c.Name())
		}
	}
}

func TestCodecNamesDistinct(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range codecs() {
		if seen[c.Name()] {
			t.Errorf("duplicate codec name %q", c.Name())
		}
		seen[c.Name()] = true
	}
}
