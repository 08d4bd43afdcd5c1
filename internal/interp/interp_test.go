package interp

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/grid"
)

func TestNumLevels(t *testing.T) {
	cases := []struct {
		shape grid.Shape
		want  int
	}{
		{grid.Shape{2}, 1},
		{grid.Shape{3}, 2},
		{grid.Shape{4}, 2},
		{grid.Shape{5}, 3},
		{grid.Shape{256}, 8},
		{grid.Shape{257}, 9},
		{grid.Shape{1}, 1},
		{grid.Shape{16, 100, 3}, 7}, // 2^7=128 >= 100
	}
	for _, c := range cases {
		d, err := NewDecomposition(c.shape)
		if err != nil {
			t.Fatal(err)
		}
		if d.NumLevels() != c.want {
			t.Errorf("shape %v: levels = %d, want %d", c.shape, d.NumLevels(), c.want)
		}
	}
}

// TestCoverage verifies the fundamental decomposition invariant: every grid
// point is either an anchor or visited by exactly one level pass.
func TestCoverage(t *testing.T) {
	shapes := []grid.Shape{
		{1}, {2}, {7}, {64}, {65},
		{5, 9}, {16, 16}, {1, 12},
		{7, 6, 5}, {8, 8, 8}, {3, 1, 9},
		{3, 4, 5, 2},
	}
	for _, shape := range shapes {
		d, err := NewDecomposition(shape)
		if err != nil {
			t.Fatal(err)
		}
		n := shape.Len()
		visits := make([]int, n)
		for _, a := range d.Anchors() {
			visits[a]++
		}
		for l := d.NumLevels(); l >= 1; l-- {
			visitPoints(d, nil, l, Linear, func(idx int, _ float64) float64 {
				visits[idx]++
				return 0
			})
		}
		for i, v := range visits {
			if v != 1 {
				t.Fatalf("shape %v: point %d visited %d times", shape, i, v)
			}
		}
	}
}

// TestLevelCountSums checks LevelCount sums with anchors to the
// total element count.
func TestLevelCountSums(t *testing.T) {
	shape := grid.Shape{33, 20, 7}
	d, err := NewDecomposition(shape)
	if err != nil {
		t.Fatal(err)
	}
	total := len(d.Anchors())
	for l := 1; l <= d.NumLevels(); l++ {
		total += d.LevelCount(l)
	}
	if total != shape.Len() {
		t.Errorf("anchors+levels = %d, want %d", total, shape.Len())
	}
}

// TestPredictionExactOnLinearField: linear interpolation reproduces affine
// fields exactly (away from copy-boundary), so residuals must be ~0.
func TestPredictionExactOnLinearField(t *testing.T) {
	shape := grid.Shape{17, 17}
	g := grid.MustNew[float64](shape)
	for i := 0; i < 17; i++ {
		for j := 0; j < 17; j++ {
			g.Set(2*float64(i)+3*float64(j)+1, i, j)
		}
	}
	d, _ := NewDecomposition(shape)
	data := g.Clone().Data()
	for l := d.NumLevels(); l >= 1; l-- {
		visitPoints(d, data, l, Linear, func(idx int, pred float64) float64 {
			// Interior points of an affine field are predicted exactly;
			// boundary copies may differ. Check only exact predictions on
			// interior-ish points via the residual magnitude.
			if math.Abs(pred-data[idx]) > 17*5 {
				t.Fatalf("prediction wildly off at %d: pred=%v actual=%v", idx, pred, data[idx])
			}
			return data[idx] // keep original values: lossless pass-through
		})
	}
}

// TestDeterministicOrder ensures two identical walks observe identical
// sequences — compression and decompression must agree exactly.
func TestDeterministicOrder(t *testing.T) {
	shape := grid.Shape{9, 10, 11}
	d, _ := NewDecomposition(shape)
	var a, b []int
	for l := d.NumLevels(); l >= 1; l-- {
		visitPoints(d, nil, l, Cubic, func(idx int, _ float64) float64 {
			a = append(a, idx)
			return 0
		})
	}
	for l := d.NumLevels(); l >= 1; l-- {
		visitPoints(d, nil, l, Cubic, func(idx int, _ float64) float64 {
			b = append(b, idx)
			return 0
		})
	}
	if len(a) != len(b) {
		t.Fatal("different lengths")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("order differs at %d", i)
		}
	}
}

// TestLosslessReconstruction: if the caller stores pred+residual with exact
// residuals, walking levels reconstructs the original exactly. This
// exercises that decompression sees the same predictions as compression.
func TestLosslessReconstruction(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for _, shape := range []grid.Shape{{31}, {12, 13}, {9, 8, 7}} {
		orig := make([]float64, shape.Len())
		for i := range orig {
			orig[i] = r.NormFloat64()
		}
		d, _ := NewDecomposition(shape)

		// "Compress": record residuals in visit order.
		work := append([]float64(nil), orig...)
		var residuals []float64
		for l := d.NumLevels(); l >= 1; l-- {
			visitPoints(d, work, l, Cubic, func(idx int, pred float64) float64 {
				residuals = append(residuals, work[idx]-pred)
				return work[idx]
			})
		}

		// "Decompress": start from anchors only, replay residuals.
		rec := make([]float64, len(orig))
		for _, a := range d.Anchors() {
			rec[a] = orig[a]
		}
		pos := 0
		for l := d.NumLevels(); l >= 1; l-- {
			visitPoints(d, rec, l, Cubic, func(idx int, pred float64) float64 {
				v := pred + residuals[pos]
				pos++
				return v
			})
		}
		for i := range orig {
			if math.Abs(rec[i]-orig[i]) > 1e-12 {
				t.Fatalf("shape %v: point %d: rec=%v orig=%v", shape, i, rec[i], orig[i])
			}
		}
	}
}

func TestKindString(t *testing.T) {
	if Linear.String() != "linear" || Cubic.String() != "cubic" {
		t.Error("Kind.String broken")
	}
	if Linear.Amplification() != 1 || Cubic.Amplification() != 1.25 {
		t.Error("Amplification wrong")
	}
}

func TestAnchorsOfPowerOfTwoGrid(t *testing.T) {
	d, _ := NewDecomposition(grid.Shape{8, 8})
	// L=3, anchor stride 8: only the origin.
	anchors := d.Anchors()
	if len(anchors) != 1 || anchors[0] != 0 {
		t.Errorf("anchors = %v", anchors)
	}
	d2, _ := NewDecomposition(grid.Shape{9, 9})
	// L=4, stride 16: only origin again.
	if n := len(d2.Anchors()); n != 1 {
		t.Errorf("9x9 anchors = %d", n)
	}
	d3, _ := NewDecomposition(grid.Shape{17, 9})
	// L=5 (2^5=32>=17): stride 32 -> origin only.
	if n := len(d3.Anchors()); n != 1 {
		t.Errorf("17x9 anchors = %d", n)
	}
}

func TestRejectsInvalidShape(t *testing.T) {
	if _, err := NewDecomposition(grid.Shape{}); err == nil {
		t.Error("empty shape must error")
	}
	if _, err := NewDecomposition(grid.Shape{0, 3}); err == nil {
		t.Error("zero extent must error")
	}
}
