package zfp

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"

	"repro/internal/grid"
)

func TestLiftInvertibility(t *testing.T) {
	// fwdLift's >>1 stages drop one bit each; invLift must recover the
	// original up to the documented ±few fixed-point units.
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 1000; trial++ {
		var p, orig [4]int64
		for i := range p {
			p[i] = int64(r.Intn(1<<40)) - 1<<39
			orig[i] = p[i]
		}
		fwdLift(p[:], 1)
		invLift(p[:], 1)
		for i := range p {
			if d := p[i] - orig[i]; d > 4 || d < -4 {
				t.Fatalf("trial %d: element %d off by %d", trial, i, d)
			}
		}
	}
}

func TestLiftDecorrelatesSmoothLine(t *testing.T) {
	// On a linear ramp: x captures the mean exactly and the curvature
	// coefficient z vanishes; y and w legitimately carry the linear trend.
	p := []int64{1000, 2000, 3000, 4000}
	fwdLift(p, 1)
	if p[0] != 2500 {
		t.Errorf("mean coefficient %d, want 2500", p[0])
	}
	if abs(p[2]) > 2 {
		t.Errorf("curvature coefficient %d, want ~0", p[2])
	}
	// A constant block must concentrate everything into x.
	q := []int64{7000, 7000, 7000, 7000}
	fwdLift(q, 1)
	if q[0] != 7000 || q[1] != 0 || q[2] != 0 || q[3] != 0 {
		t.Errorf("constant block transformed to %v", q)
	}
}

func abs(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

func TestTransformRoundTrip3D(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	block := make([]int64, 64)
	orig := make([]int64, 64)
	for i := range block {
		block[i] = int64(r.Intn(1 << 30))
		orig[i] = block[i]
	}
	forwardTransform(block, 3)
	inverseTransform(block, 3)
	for i := range block {
		if d := block[i] - orig[i]; d > 16 || d < -16 {
			t.Fatalf("element %d off by %d", i, d)
		}
	}
}

func TestDegreeOrderIsPermutation(t *testing.T) {
	for nd := 1; nd <= 4; nd++ {
		order := degreeOrder(nd)
		n := 1
		for i := 0; i < nd; i++ {
			n *= 4
		}
		if len(order) != n {
			t.Fatalf("nd=%d: %d entries, want %d", nd, len(order), n)
		}
		seen := make([]bool, n)
		for _, idx := range order {
			if idx < 0 || idx >= n || seen[idx] {
				t.Fatalf("nd=%d: bad/dup index %d", nd, idx)
			}
			seen[idx] = true
		}
		// Degrees must be non-decreasing along the order.
		deg := func(i int) int {
			d := 0
			for k := 0; k < nd; k++ {
				d += i % 4
				i /= 4
			}
			return d
		}
		for i := 1; i < len(order); i++ {
			if deg(order[i]) < deg(order[i-1]) {
				t.Fatalf("nd=%d: degree order violated at %d", nd, i)
			}
		}
	}
}

func TestPartialBlocksAtEdges(t *testing.T) {
	// Shapes not divisible by 4 exercise gather/scatter padding.
	c := New()
	for _, shape := range []grid.Shape{{5}, {6, 7}, {5, 6, 7}, {9, 3, 5}} {
		g := grid.MustNew[float64](shape)
		r := rand.New(rand.NewSource(3))
		prev := 0.0
		for i := range g.Data() {
			prev += r.NormFloat64() * 0.1
			g.Data()[i] = prev // smooth-ish random walk
		}
		eb := 1e-3
		blob, err := c.Compress(g, eb)
		if err != nil {
			t.Fatalf("%v: %v", shape, err)
		}
		rec, err := c.Decompress(blob, shape)
		if err != nil {
			t.Fatalf("%v: %v", shape, err)
		}
		for i := range g.Data() {
			if math.Abs(g.Data()[i]-rec.Data()[i]) > eb {
				t.Fatalf("%v: element %d error %g", shape, i,
					math.Abs(g.Data()[i]-rec.Data()[i]))
			}
		}
	}
}

func TestNaNBlockEscape(t *testing.T) {
	c := New()
	shape := grid.Shape{8, 8}
	g := grid.MustNew[float64](shape)
	for i := range g.Data() {
		g.Data()[i] = float64(i)
	}
	g.Data()[10] = math.NaN()
	blob, err := c.Compress(g, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := c.Decompress(blob, shape)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(rec.Data()[10]) {
		t.Errorf("NaN lost: %v", rec.Data()[10])
	}
	// The raw-escaped block reproduces its other values exactly too.
	if rec.Data()[11] != 11 {
		t.Errorf("raw block value %v", rec.Data()[11])
	}
}

func TestZeroBlocks(t *testing.T) {
	c := New()
	shape := grid.Shape{16, 16}
	g := grid.MustNew[float64](shape) // all zeros
	blob, err := c.Compress(g, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if len(blob) > 200 {
		t.Errorf("all-zero field compressed to %d bytes", len(blob))
	}
	rec, err := c.Decompress(blob, shape)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range rec.Data() {
		if v != 0 {
			t.Fatalf("element %d = %v", i, v)
		}
	}
}

// TestCompressBytesPinned pins the blob Compress writes for a fixed random
// walk whose extents leave partial blocks.
func TestCompressBytesPinned(t *testing.T) {
	const want = "768fa5652142540323ba1ccc3eaa0283b8d521cbcac9b0d3a0ed3633ee42f1df"
	g := grid.MustNew[float64](grid.Shape{9, 6, 7})
	r := rand.New(rand.NewSource(3))
	prev := 0.0
	for i := range g.Data() {
		prev += r.NormFloat64() * 0.1
		g.Data()[i] = prev
	}
	blob, err := New().Compress(g, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(blob)
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("blob digest drifted:\n got  %s\n want %s", got, want)
	}
}
