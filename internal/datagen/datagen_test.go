package datagen

import (
	"math"
	"testing"

	"repro/internal/grid"
)

func TestAllDatasetsGenerate(t *testing.T) {
	if len(Names()) != 6 {
		t.Fatalf("got %d datasets", len(Names()))
	}
	for _, name := range Names() {
		ds, err := Generate(name, 16)
		if err != nil {
			t.Fatal(err)
		}
		if ds.Grid.Len() == 0 {
			t.Errorf("%s: empty grid", ds.Name)
		}
		if ds.Grid.ValueRange() <= 0 {
			t.Errorf("%s: degenerate value range", ds.Name)
		}
		for _, v := range ds.Grid.Data() {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("%s: non-finite value", ds.Name)
			}
		}
	}
}

func TestDeterminism(t *testing.T) {
	a, err := Generate("Density", 16)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate("Density", 16)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Grid.Data() {
		if a.Grid.Data()[i] != b.Grid.Data()[i] {
			t.Fatalf("non-deterministic at %d", i)
		}
	}
}

func TestDatasetsDiffer(t *testing.T) {
	a, _ := Generate("Density", 16)
	b, _ := Generate("Pressure", 16)
	same := 0
	for i := range a.Grid.Data() {
		if a.Grid.Data()[i] == b.Grid.Data()[i] {
			same++
		}
	}
	if same > a.Grid.Len()/100 {
		t.Errorf("Density and Pressure share %d of %d values", same, a.Grid.Len())
	}
}

func TestShapesScaleWithDivisor(t *testing.T) {
	ds, err := Generate("SpeedX", 4)
	if err != nil {
		t.Fatal(err)
	}
	want := grid.Shape{25, 125, 125}
	if !ds.Grid.Shape().Equal(want) {
		t.Errorf("shape %v, want %v", ds.Grid.Shape(), want)
	}
	if !ds.PaperShape.Equal(grid.Shape{100, 500, 500}) {
		t.Errorf("paper shape %v", ds.PaperShape)
	}
}

func TestDivisorFloor(t *testing.T) {
	// Huge divisor must clamp extents at 8, not collapse to zero.
	ds, err := Generate("Density", 1000)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range ds.Grid.Shape() {
		if d < 8 {
			t.Errorf("extent %d below floor", d)
		}
	}
}

func TestUnknownDataset(t *testing.T) {
	if _, err := Generate("NoSuch", 4); err == nil {
		t.Error("unknown dataset must error")
	}
	if _, err := GenerateShape("NoSuch", grid.Shape{8}); err == nil {
		t.Error("unknown dataset must error")
	}
}

func TestCH4IsMassFractionLike(t *testing.T) {
	ds, err := Generate("CH4", 16)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := ds.Grid.Range()
	if lo < 0 {
		t.Errorf("CH4 min %g < 0", lo)
	}
	if hi > 0.2 {
		t.Errorf("CH4 max %g implausibly large for a mass fraction", hi)
	}
}

func TestDensityIsPositive(t *testing.T) {
	ds, err := Generate("Density", 16)
	if err != nil {
		t.Fatal(err)
	}
	lo, _ := ds.Grid.Range()
	if lo <= 0 {
		t.Errorf("density must be positive, min %g", lo)
	}
}

func TestFieldsAreSmoothAtCellLevel(t *testing.T) {
	// Neighbour differences should be small relative to the range — the
	// property that makes interpolation-based compression effective and
	// that real SDRBench fields exhibit.
	for _, name := range Names() {
		ds, err := Generate(name, 8)
		if err != nil {
			t.Fatal(err)
		}
		data := ds.Grid.Data()
		shape := ds.Grid.Shape()
		stride := shape.Strides()[0]
		rangeV := ds.Grid.ValueRange()
		maxStep := 0.0
		for i := stride; i < len(data); i++ {
			d := math.Abs(data[i] - data[i-stride])
			if d > maxStep {
				maxStep = d
			}
		}
		if maxStep > 0.7*rangeV {
			t.Errorf("%s: neighbour step %.3g vs range %.3g — not smooth", name, maxStep, rangeV)
		}
	}
}
