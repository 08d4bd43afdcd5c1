package store

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/grid"
	"repro/internal/interp"
)

func TestPlanRegion(t *testing.T) {
	g := testField(t, grid.Shape{32, 32, 32})
	eb := 1e-6 * g.ValueRange()
	blob := packOne(t, g, eb, grid.Shape{16, 16, 16})
	s := openStore(t, blob)

	lo, hi := []int{0, 0, 0}, []int{20, 32, 16}
	loose, tight := 512*eb, 8*eb

	fresh, err := s.PlanRegion("field", lo, hi, loose, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(fresh.Chunks) != 4 {
		t.Fatalf("fresh plan has %d chunks, region intersects 4", len(fresh.Chunks))
	}
	if fresh.Guaranteed > loose {
		t.Errorf("plan guarantees %g, requested %g", fresh.Guaranteed, loose)
	}
	if fresh.Bound != loose {
		t.Errorf("normalized bound %g, want %g", fresh.Bound, loose)
	}
	for _, cp := range fresh.Chunks {
		if cp.Bytes() <= 0 {
			t.Errorf("chunk %d ships no bytes on a fresh plan", cp.Index)
		}
		for _, sp := range cp.Spans {
			if sp.Off < 0 || sp.Off+sp.Len > cp.BlobSize {
				t.Errorf("chunk %d span %+v outside blob of %d bytes", cp.Index, sp, cp.BlobSize)
			}
		}
		// Shipped ranges must be readable through the container.
		if _, err := s.ReadRange(cp.BlobOff+cp.Spans[0].Off, cp.Spans[0].Len); err != nil {
			t.Errorf("chunk %d span unreadable: %v", cp.Index, err)
		}
	}

	// A refinement ships strictly less than a fresh request at the same
	// tight bound: the client already holds the headers and coarse planes.
	refine, err := s.PlanRegion("field", lo, hi, tight, loose)
	if err != nil {
		t.Fatal(err)
	}
	freshTight, err := s.PlanRegion("field", lo, hi, tight, 0)
	if err != nil {
		t.Fatal(err)
	}
	if refine.Bytes() >= freshTight.Bytes() {
		t.Errorf("refinement ships %d bytes, fresh request %d — delta serving saves nothing",
			refine.Bytes(), freshTight.Bytes())
	}
	if refine.Guaranteed > tight {
		t.Errorf("refinement guarantees %g, requested %g", refine.Guaranteed, tight)
	}

	// Refining to a bound already held ships nothing but still reports the
	// guarantee.
	noop, err := s.PlanRegion("field", lo, hi, loose, loose)
	if err != nil {
		t.Fatal(err)
	}
	if len(noop.Chunks) != 0 {
		t.Errorf("no-op refinement ships %d chunks", len(noop.Chunks))
	}
	if noop.Guaranteed > loose {
		t.Errorf("no-op refinement guarantees %g", noop.Guaranteed)
	}

	// Determinism: the same request plans the same bytes (the stateless
	// token contract depends on this).
	again, err := s.PlanRegion("field", lo, hi, loose, 0)
	if err != nil {
		t.Fatal(err)
	}
	if again.Bytes() != fresh.Bytes() || len(again.Chunks) != len(fresh.Chunks) {
		t.Error("identical requests planned different bytes")
	}

	// Error shapes.
	if _, err := s.PlanRegion("nope", lo, hi, loose, 0); err == nil {
		t.Error("unknown dataset accepted")
	}
	if _, err := s.PlanRegion("field", lo, hi, eb/2, 0); !errors.Is(err, core.ErrBoundTooTight) {
		t.Errorf("sub-eb bound: got %v, want ErrBoundTooTight", err)
	}
	if _, err := s.PlanRegion("field", lo, []int{64, 64, 64}, loose, 0); err == nil {
		t.Error("out-of-range region accepted")
	}
	if _, err := s.PlanRegion("field", lo, hi, tight, eb/2); err == nil {
		t.Error("refinement base below dataset bound accepted")
	}

	// Full fidelity normalizes to the dataset bound.
	full, err := s.PlanRegion("field", lo, hi, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if full.Bound != eb {
		t.Errorf("bound 0 normalized to %g, want dataset eb %g", full.Bound, eb)
	}
}

// TestPlanRegionDoesNotChargeCache: planning reads only tile headers, so
// it must not admit cache entries — a planes-heavy workload would
// otherwise be charged full decoded-tile sizes it never decodes,
// flushing tiles that raw retrievals paid real decode time for.
func TestPlanRegionDoesNotChargeCache(t *testing.T) {
	g := testField(t, grid.Shape{32, 32, 32})
	eb := 1e-5 * g.ValueRange()
	s := openStore(t, packOne(t, g, eb, grid.Shape{16, 16, 16}))

	countEntries := func() int64 { return s.TileCache().Stats().Entries }
	if _, err := s.PlanRegion("field", []int{0, 0, 0}, []int{32, 32, 32}, 64*eb, 0); err != nil {
		t.Fatal(err)
	}
	if n := countEntries(); n != 0 {
		t.Errorf("planning a cold region admitted %d cache entries", n)
	}
	if _, err := s.RetrieveRegion("field", []int{0, 0, 0}, []int{32, 32, 32}, 64*eb); err != nil {
		t.Fatal(err)
	}
	before := countEntries()
	if _, err := s.PlanRegion("field", []int{0, 0, 0}, []int{32, 32, 32}, 8*eb, 64*eb); err != nil {
		t.Fatal(err)
	}
	if after := countEntries(); after != before {
		t.Errorf("planning changed cache population %d -> %d", before, after)
	}
	if st := s.Stats(); st.TileDecodes != 8 {
		t.Errorf("planning triggered decodes: %d, want 8 from the one retrieval", st.TileDecodes)
	}
}

// BenchmarkPlanRegion prices PlanRegion alone on the shape serve_warm_refine
// serves: the 96³ Pressure field in float64 at a relative bound of 1e-6,
// cubic, 32³ tiles, and 48³ boxes on a pitch-8 lattice (27 tiles for the
// box at the origin, 8 for one aligned to the tiles). A "fresh" plan is a
// planes request at 16·eb; a "refine" plan is a token refinement from
// 256·eb to 16·eb, which plans every tile twice. On "warm" entries every
// tile has been retrieved, so planning peeks at the parsed archive; on
// "peek-miss" entries nothing is cached and every tile's header is parsed
// afresh, as on a planes-only node or an edge.
func BenchmarkPlanRegion(b *testing.B) {
	g, err := datagen.GenerateShape("Pressure", grid.Shape{96, 96, 96})
	if err != nil {
		b.Fatal(err)
	}
	eb := 1e-6 * g.ValueRange()
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		b.Fatal(err)
	}
	if err := Add(w, "pressure", g, WriteOptions{ErrorBound: eb, Interpolation: interp.Cubic,
		ChunkShape: grid.Shape{32, 32, 32}}); err != nil {
		b.Fatal(err)
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	type box struct{ lo, hi []int }
	r := rand.New(rand.NewSource(1))
	boxes := make([]box, 64)
	for i := range boxes {
		lo, hi := make([]int, 3), make([]int, 3)
		for d := range lo {
			lo[d] = r.Intn((96-48)/8+1) * 8
			hi[d] = lo[d] + 48
		}
		boxes[i] = box{lo, hi}
	}
	for _, entries := range []string{"warm", "peek-miss"} {
		s := openStore(b, buf.Bytes())
		if entries == "warm" {
			if _, err := s.RetrieveDataset("pressure", 64*eb); err != nil {
				b.Fatal(err)
			}
		}
		for _, p := range []struct {
			name        string
			bound, have float64
		}{{"fresh", 16 * eb, 0}, {"refine", 16 * eb, 256 * eb}} {
			b.Run(entries+"/"+p.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := range b.N {
					bx := boxes[i%len(boxes)]
					if _, err := s.PlanRegion("pressure", bx.lo, bx.hi, p.bound, p.have); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
