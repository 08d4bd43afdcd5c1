package repro

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/grid"
	"repro/internal/interp"
)

// ledgerPath holds the byte ledger: for every row of ledgerRows, the
// plan PlanErrorBoundMode picks, the bytes it loads and the bound it
// guarantees. Plans are deterministic, so a change that moves the bytes a
// bound costs shows here as a diff of rows, with no timing involved.
const ledgerPath = "testdata/plan_ledger.txt"

// ledgerFields are the benchmark's codec_field inputs, at its full shapes.
var ledgerFields = []struct {
	name  string
	shape grid.Shape
}{
	{"Density", grid.Shape{128, 128, 128}},
	{"Wave", grid.Shape{126, 126, 88}},
	{"CH4", grid.Shape{100, 100, 100}},
}

// ledgerWidths are the two scalar widths at the relative bounds the
// benchmark compresses them at, with codec_field's two progressive rungs
// (relative to the value range) for each.
var ledgerWidths = []struct {
	name  string
	relEB float64
	rungs [2]float64
}{
	{"f32", 1e-5, [2]float64{1e-2, 1e-3}},
	{"f64", 1e-6, [2]float64{1e-2, 1e-4}},
}

// ledgerMultiples are the serving rungs, as multiples of eb.
var ledgerMultiples = []float64{4, 16, 64, 256}

// ledgerPiece compresses one piece of a field with the default (cubic)
// predictor and appends its rows. eb is absolute, the field's relative
// bound times the whole field's range, the way a store compresses every
// tile of a field under one bound.
func ledgerPiece[T grid.Scalar](t *testing.T, rows []string, key string, g *grid.Grid[T], eb, vrange float64, rungs [2]float64) []string {
	t.Helper()
	blob, err := core.Compress(g, core.Options{ErrorBound: eb, Interpolation: interp.Cubic})
	if err != nil {
		t.Fatalf("%s: %v", key, err)
	}
	a, err := core.NewArchive(blob)
	if err != nil {
		t.Fatalf("%s: %v", key, err)
	}
	type rung struct {
		label string
		bound float64
	}
	var bounds []rung
	for _, m := range ledgerMultiples {
		bounds = append(bounds, rung{fmt.Sprintf("%geb", m), m * eb})
	}
	for _, r := range rungs {
		bounds = append(bounds, rung{fmt.Sprintf("%grange", r), r * vrange})
	}
	for _, b := range bounds {
		p, err := a.PlanErrorBoundMode(b.bound)
		if err != nil {
			t.Fatalf("%s at %s: %v", key, b.label, err)
		}
		rows = append(rows, fmt.Sprintf("%s %-10s bytes=%-8d of=%-8d keep=%v bound=%.10g",
			key, b.label, a.PlanBytes(p), a.TotalSize(), p.Keep, a.PlanErrorBound(p)))
	}
	return rows
}

// ledgerRows builds every row of the ledger: each field at each width,
// whole and as its centred 64³ and 32³ tiles, at every rung.
func ledgerRows(t *testing.T) []string {
	var rows []string
	for _, f := range ledgerFields {
		g64, err := datagen.GenerateShape(f.name, f.shape)
		if err != nil {
			t.Fatal(err)
		}
		g32 := grid.Narrow(g64)
		for _, w := range ledgerWidths {
			vrange := g64.ValueRange()
			if w.name == "f32" {
				vrange = g32.ValueRange()
			}
			eb := w.relEB * vrange
			for _, edge := range []int{0, 64, 32} {
				piece := "whole"
				if edge > 0 {
					piece = fmt.Sprintf("tile%d", edge)
				}
				key := fmt.Sprintf("%-7s %s %-6s", f.name, w.name, piece)
				if w.name == "f32" {
					rows = ledgerPiece(t, rows, key, centred(t, g32, edge), eb, vrange, w.rungs)
				} else {
					rows = ledgerPiece(t, rows, key, centred(t, g64, edge), eb, vrange, w.rungs)
				}
			}
		}
	}
	return rows
}

// centred returns the cube of the given edge in the middle of g, or g
// itself for edge 0.
func centred[T grid.Scalar](t *testing.T, g *grid.Grid[T], edge int) *grid.Grid[T] {
	if edge == 0 {
		return g
	}
	sh := g.Shape()
	lo := make([]int, len(sh))
	for d, e := range sh {
		lo[d] = (e - edge) / 2
	}
	out := make([]T, 0, edge*edge*edge)
	for z := 0; z < edge; z++ {
		for y := 0; y < edge; y++ {
			o := g.Offset(lo[0]+z, lo[1]+y, lo[2])
			out = append(out, g.Data()[o:o+edge]...)
		}
	}
	c, err := grid.FromSlice(out, grid.Shape{edge, edge, edge})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestPlanLedger pins the bytes and the guaranteed bound of every ledger
// plan. A change to planning that moves a row must change ledgerPath in
// the same commit: the failure lists each moved row, and -v prints the
// whole ledger to replace the file with.
func TestPlanLedger(t *testing.T) {
	got := ledgerRows(t)
	raw, err := os.ReadFile(filepath.FromSlash(ledgerPath))
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	if len(want) != len(got) {
		t.Errorf("%s has %d rows, the ledger %d", ledgerPath, len(want), len(got))
	}
	for i := range min(len(want), len(got)) {
		if want[i] != got[i] {
			t.Errorf("row %d moved:\n was %s\n now %s", i+1, want[i], got[i])
		}
	}
	if t.Failed() {
		t.Logf("the ledger as planned now:\n%s", strings.Join(got, "\n"))
	}
}
