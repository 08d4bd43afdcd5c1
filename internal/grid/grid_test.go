package grid

import (
	"math"
	"testing"
)

func TestShapeValidate(t *testing.T) {
	if err := (Shape{}).Validate(); err == nil {
		t.Error("empty shape must be invalid")
	}
	if err := (Shape{1, 2, 3, 4, 5}).Validate(); err == nil {
		t.Error("5-d shape must be invalid")
	}
	if err := (Shape{4, 0}).Validate(); err == nil {
		t.Error("zero extent must be invalid")
	}
	if err := (Shape{4, 3, 2}).Validate(); err != nil {
		t.Errorf("valid shape rejected: %v", err)
	}
	// Len multiplies unchecked, so Validate must refuse a product that
	// wraps: here to a small positive count, which would size a buffer far
	// smaller than the extents index.
	const big = 1 << 31
	for _, s := range []Shape{{big, big, 4}, {math.MaxInt, 2}, {1 << 16, 1 << 16, 1 << 16, 1 << 16}} {
		if err := s.Validate(); err == nil {
			t.Errorf("%v: a product past MaxInt must be invalid (Len wraps to %d)", []int(s), s.Len())
		}
	}
	if err := (Shape{math.MaxInt}).Validate(); err != nil {
		t.Errorf("a product of exactly MaxInt rejected: %v", err)
	}
	if err := (Shape{1 << 31, 1<<31 - 1}).Validate(); err != nil {
		t.Errorf("a product below MaxInt rejected: %v", err)
	}
}

func TestShapeLenAndStrides(t *testing.T) {
	s := Shape{2, 3, 4}
	if s.Len() != 24 {
		t.Errorf("Len = %d", s.Len())
	}
	st := s.Strides()
	if st[0] != 12 || st[1] != 4 || st[2] != 1 {
		t.Errorf("Strides = %v", st)
	}
}

func TestShapeEqualClone(t *testing.T) {
	s := Shape{5, 6}
	c := s.Clone()
	if !s.Equal(c) {
		t.Error("clone not equal")
	}
	c[0] = 7
	if s[0] == 7 {
		t.Error("clone aliases original")
	}
	if s.Equal(Shape{5}) || s.Equal(Shape{5, 7}) {
		t.Error("Equal false positives")
	}
}

func TestGridAtSetOffset(t *testing.T) {
	g := MustNew[float64](Shape{2, 3, 4})
	g.Set(42, 1, 2, 3)
	if g.At(1, 2, 3) != 42 {
		t.Error("At/Set mismatch")
	}
	if g.Offset(1, 2, 3) != 1*12+2*4+3 {
		t.Errorf("Offset = %d", g.Offset(1, 2, 3))
	}
	if g.Data()[23] != 42 {
		t.Error("flat layout mismatch")
	}
}

func TestFromSliceValidation(t *testing.T) {
	if _, err := FromSlice(make([]float64, 5), Shape{2, 3}); err == nil {
		t.Error("length mismatch must error")
	}
	g, err := FromSlice(make([]float64, 6), Shape{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 6 || g.NDims() != 2 {
		t.Error("metadata wrong")
	}
}

func TestCloneIndependence(t *testing.T) {
	g := MustNew[float64](Shape{4})
	g.Set(1, 2)
	c := g.Clone()
	c.Set(9, 2)
	if g.At(2) != 1 {
		t.Error("clone aliases data")
	}
}

func TestRange(t *testing.T) {
	g := MustNew[float64](Shape{4})
	copy(g.Data(), []float64{3, -1, 7, 2})
	lo, hi := g.Range()
	if lo != -1 || hi != 7 {
		t.Errorf("Range = %v, %v", lo, hi)
	}
	if g.ValueRange() != 8 {
		t.Errorf("ValueRange = %v", g.ValueRange())
	}
}

func TestShapeString(t *testing.T) {
	if s := (Shape{2, 3}).String(); s != "2x3" {
		t.Errorf("String = %q", s)
	}
}

func TestGridFloat32(t *testing.T) {
	g := MustNew[float32](Shape{2, 3})
	g.Set(1.5, 1, 2)
	if g.At(1, 2) != 1.5 {
		t.Error("f32 At/Set mismatch")
	}
	copy(g.Data(), []float32{3, -1, 7, 2, 0, 1})
	lo, hi := g.Range()
	if lo != -1 || hi != 7 {
		t.Errorf("Range = %v, %v", lo, hi)
	}
	if g.ValueRange() != 8 {
		t.Errorf("ValueRange = %v", g.ValueRange())
	}
	w, err := FromSlice(WidenSlice(g.Data()), g.Shape())
	if err != nil {
		t.Fatal(err)
	}
	if w.At(0, 2) != 7 {
		t.Error("WidenSlice mismatch")
	}
	n := Narrow(w)
	for i, v := range n.Data() {
		if v != g.Data()[i] {
			t.Errorf("Narrow(WidenSlice) not identity at %d: %v vs %v", i, v, g.Data()[i])
		}
	}
	// WidenSlice must not alias even for float64 inputs.
	w2 := WidenSlice(w.Data())
	w2[0] = 99
	if w.At(0, 0) == 99 {
		t.Error("WidenSlice aliases float64 input")
	}
}
