package residual

import (
	"math"
	"testing"

	"repro/internal/baselines/sz3"
	"repro/internal/baselines/zfp"
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
			v += math.Sin(5*c) + 0.2*math.Cos(17*c)
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

// TestDefaultLadder pins the paper's bound ladder (§6.1.3: 2^16 eb,
// 2^14 eb, ..., 2^2 eb, eb) as Ladder's nine-rung case.
func TestDefaultLadder(t *testing.T) {
	l := Ladder(1e-6, 9)
	if len(l) != 9 {
		t.Fatalf("ladder has %d rungs, want 9", len(l))
	}
	if l[0] != 1e-6*65536 {
		t.Errorf("first rung %g", l[0])
	}
	if l[8] != 1e-6 {
		t.Errorf("last rung %g", l[8])
	}
	for i := 1; i < len(l); i++ {
		if math.Abs(l[i-1]/l[i]-4) > 1e-9 {
			t.Errorf("rung ratio %g", l[i-1]/l[i])
		}
	}
}

func TestLadderCounts(t *testing.T) {
	for _, n := range []int{1, 2, 5, 9} {
		l := Ladder(1e-5, n)
		if len(l) != n {
			t.Fatalf("Ladder(%d) has %d rungs", n, len(l))
		}
		if l[n-1] != 1e-5 {
			t.Errorf("Ladder(%d) final rung %g", n, l[n-1])
		}
		if err := validateBounds(l); err != nil {
			t.Errorf("Ladder(%d): %v", n, err)
		}
	}
}

func TestResidualProgressiveBounds(t *testing.T) {
	g := field(grid.Shape{24, 20, 16})
	eb := 1e-6
	c := sz3.New()
	a, err := CompressResidual(c, g, Ladder(eb, 9))
	if err != nil {
		t.Fatal(err)
	}
	// Every rung must deliver its own bound, with pass count i+1.
	for i, b := range a.Bounds {
		ret, err := a.RetrieveErrorBound(c, b)
		if err != nil {
			t.Fatalf("rung %d: %v", i, err)
		}
		if got := maxErr(g.Data(), ret.Data.Data()); got > b {
			t.Errorf("rung %d: error %g over bound %g", i, got, b)
		}
		if ret.Passes != i+1 {
			t.Errorf("rung %d: %d passes, want %d", i, ret.Passes, i+1)
		}
	}
	// A bound between rungs selects the next tighter rung.
	mid := a.Bounds[2] * 2
	ret, err := a.RetrieveErrorBound(c, mid)
	if err != nil {
		t.Fatal(err)
	}
	if ret.Bound != a.Bounds[2] {
		t.Errorf("between-rung request served at %g, want %g", ret.Bound, a.Bounds[2])
	}
	// Tighter than the final rung: error.
	if _, err := a.RetrieveErrorBound(c, eb/10); err == nil {
		t.Error("impossible bound must error")
	}
}

func TestMultiFidelitySinglePass(t *testing.T) {
	g := field(grid.Shape{20, 20, 10})
	eb := 1e-5
	c := zfp.New()
	a, err := CompressMulti(c, g, Ladder(eb, 4))
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range a.Bounds {
		ret, err := a.RetrieveErrorBound(c, b)
		if err != nil {
			t.Fatalf("rung %d: %v", i, err)
		}
		if ret.Passes != 1 {
			t.Errorf("multi-fidelity used %d passes", ret.Passes)
		}
		if got := maxErr(g.Data(), ret.Data.Data()); got > b {
			t.Errorf("rung %d: error %g over bound %g", i, got, b)
		}
		if ret.LoadedBytes != int64(len(a.Blobs[i])) {
			t.Errorf("rung %d: loaded %d, blob is %d", i, ret.LoadedBytes, len(a.Blobs[i]))
		}
	}
	// SZ3-M's core weakness (paper §6.2.3): total size far exceeds a single
	// tight compression.
	single, _ := c.Compress(g, eb)
	if a.TotalSize() <= int64(len(single)) {
		t.Errorf("multi-fidelity archive %d <= single %d: expected overhead", a.TotalSize(), len(single))
	}
}

func TestRetrieveBitrate(t *testing.T) {
	g := field(grid.Shape{24, 18, 12})
	c := sz3.New()
	a, err := CompressResidual(c, g, Ladder(1e-6, 5))
	if err != nil {
		t.Fatal(err)
	}
	total := a.TotalSize()
	ret, err := a.RetrieveBitrate(c, total)
	if err != nil {
		t.Fatal(err)
	}
	if ret.Bound != a.Bounds[len(a.Bounds)-1] {
		t.Errorf("full budget should reach final rung, got %g", ret.Bound)
	}
	half, err := a.RetrieveBitrate(c, total/2)
	if err != nil {
		t.Fatal(err)
	}
	if half.LoadedBytes > total/2 {
		t.Errorf("loaded %d over budget %d", half.LoadedBytes, total/2)
	}
	if _, err := a.RetrieveBitrate(c, 4); err == nil {
		t.Error("absurdly small budget must error")
	}
}

func TestValidateBounds(t *testing.T) {
	if err := validateBounds(nil); err == nil {
		t.Error("empty ladder must error")
	}
	if err := validateBounds([]float64{1, 2}); err == nil {
		t.Error("ascending ladder must error")
	}
	if err := validateBounds([]float64{1, -1}); err == nil {
		t.Error("negative bound must error")
	}
}
