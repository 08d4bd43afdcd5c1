package store

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/grid"
)

// TestRetrieveReuseBitIdentical cycles one Region through retrievals of
// different boxes, bounds, and scalar widths and checks every recycled
// result is bit-identical to a fresh RetrieveRegion.
func TestRetrieveReuseBitIdentical(t *testing.T) {
	g := testField(t, grid.Shape{32, 32, 32})
	eb := 1e-6 * g.ValueRange()
	s := openStore(t, packOne(t, g, eb, grid.Shape{16, 16, 16}))

	g32 := testField32(t, grid.Shape{24, 24, 24})
	eb32 := float64(1e-4 * g32.ValueRange())
	var reqs = []struct {
		lo, hi []int
		bound  float64
	}{
		{[]int{0, 0, 0}, []int{32, 32, 32}, 0},
		{[]int{4, 4, 4}, []int{28, 28, 28}, 64 * eb},
		{[]int{4, 4, 4}, []int{28, 28, 28}, eb}, // refine of the previous box
		{[]int{15, 0, 7}, []int{17, 32, 9}, 16 * eb},
		{[]int{0, 0, 0}, []int{1, 1, 1}, 0},
	}
	var reused *Region
	for i, rq := range reqs {
		fresh, err := s.RetrieveRegion("field", rq.lo, rq.hi, rq.bound)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.RetrieveRegionOpts("field", rq.lo, rq.hi, rq.bound, RetrieveOptions{Reuse: reused})
		if err != nil {
			t.Fatal(err)
		}
		if reused != nil && got != reused {
			t.Fatalf("req %d: RetrieveRegionOpts did not return the recycled region", i)
		}
		reused = got
		fd, gd := fresh.Data(), got.Data()
		if len(fd) != len(gd) {
			t.Fatalf("req %d: len %d != %d", i, len(gd), len(fd))
		}
		for j := range fd {
			if fd[j] != gd[j] {
				t.Fatalf("req %d: element %d differs: %v != %v", i, j, gd[j], fd[j])
			}
		}
		if fresh.GuaranteedError() != got.GuaranteedError() || fresh.Chunks() != got.Chunks() {
			t.Fatalf("req %d: metadata differs: (%v,%d) != (%v,%d)", i,
				got.GuaranteedError(), got.Chunks(), fresh.GuaranteedError(), fresh.Chunks())
		}
	}

	// Recycling the same Region across a scalar-width switch must swap the
	// backing slice to the new native type.
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := Add(w, "field", g32, WriteOptions{ErrorBound: eb32, ChunkShape: grid.Shape{16, 16, 16}}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	s32 := openStore(t, buf.Bytes())
	fresh32, err := s32.RetrieveRegion("field", []int{0, 0, 0}, []int{24, 24, 24}, 0)
	if err != nil {
		t.Fatal(err)
	}
	got32, err := s32.RetrieveRegionOpts("field", []int{0, 0, 0}, []int{24, 24, 24}, 0, RetrieveOptions{Reuse: reused})
	if err != nil {
		t.Fatal(err)
	}
	if got32.Scalar() != fresh32.Scalar() {
		t.Fatalf("recycled scalar = %v, want %v", got32.Scalar(), fresh32.Scalar())
	}
	fd, gd := fresh32.DataFloat32(), got32.DataFloat32()
	for j := range fd {
		if fd[j] != gd[j] {
			t.Fatalf("f32 element %d differs: %v != %v", j, gd[j], fd[j])
		}
	}
}

// TestRetrieveGate checks the admission-gate contract: the gate runs once
// per retrieval that needs decode or refine work, never for a request
// answered entirely from warm tiles, and a gate error aborts the
// retrieval before any decode.
func TestRetrieveGate(t *testing.T) {
	g := testField(t, grid.Shape{32, 32, 32})
	eb := 1e-6 * g.ValueRange()
	s := openStore(t, packOne(t, g, eb, grid.Shape{16, 16, 16}))
	lo, hi := []int{0, 0, 0}, []int{32, 32, 32}

	gateErr := errors.New("admission denied")
	calls := 0
	deny := RetrieveOptions{Gate: func() error { calls++; return gateErr }}
	cacheBefore := s.TileCache().Stats()
	if _, err := s.RetrieveRegionOpts("field", lo, hi, 64*eb, deny); !errors.Is(err, gateErr) {
		t.Fatalf("cold retrieval with denying gate: err = %v, want gate error", err)
	}
	if calls != 1 {
		t.Fatalf("gate calls = %d, want 1", calls)
	}
	if st := s.Stats(); st.TileDecodes != 0 {
		t.Fatalf("denied retrieval still decoded %d tiles", st.TileDecodes)
	}
	// A refused retrieval admits nothing: no empty entry is charged a
	// decoded tile's size.
	if got := s.TileCache().Stats(); got != cacheBefore {
		t.Fatalf("denied retrieval changed the tile cache: %+v -> %+v", cacheBefore, got)
	}

	calls = 0
	admit := RetrieveOptions{Gate: func() error { calls++; return nil }}
	warm, err := s.RetrieveRegionOpts("field", lo, hi, 4096*eb, admit)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("cold retrieval: gate calls = %d, want 1", calls)
	}

	// Warm repeat at the same (and looser) bound: every tile is cached at
	// sufficient fidelity, so the gate must not run at all.
	calls = 0
	if _, err := s.RetrieveRegionOpts("field", lo, hi, 4096*eb, admit); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RetrieveRegionOpts("field", lo, hi, 8192*eb, admit); err != nil {
		t.Fatal(err)
	}
	if calls != 0 {
		t.Fatalf("warm retrievals: gate calls = %d, want 0", calls)
	}

	// A bound tighter than the cached guarantee needs refine work, which is
	// decode work: gated again. (The loose decode can land tighter than
	// requested — plane granularity — so only assert when a refine is due.)
	if warm.GuaranteedError() > eb {
		calls = 0
		if _, err := s.RetrieveRegionOpts("field", lo, hi, eb, admit); err != nil {
			t.Fatal(err)
		}
		if calls != 1 {
			t.Fatalf("refining retrieval: gate calls = %d, want 1", calls)
		}
	} else {
		t.Logf("loose decode already guarantees %g <= eb %g; refine-gating covered elsewhere", warm.GuaranteedError(), eb)
	}
}

// TestRefusedRetrievalKeepsWarmTiles: a retrieval the gate refuses must
// not evict the warm tiles of a cache it does not fit beside. With room for
// 32 tiles, half of a 64-tile field warm, and a refused retrieval over the
// other half, re-reading the warm half decodes nothing.
func TestRefusedRetrievalKeepsWarmTiles(t *testing.T) {
	g := testField(t, grid.Shape{64, 64, 64})
	eb := 1e-6 * g.ValueRange()
	s := openStore(t, packOne(t, g, eb, grid.Shape{16, 16, 16}))
	s.SetCacheBytes(32 * 16 * 16 * 16 * cachedBytesPerElem(core.Float64))
	bound := 64 * eb
	warmLo, warmHi := []int{0, 0, 0}, []int{32, 64, 64}

	if _, err := s.RetrieveRegion("field", warmLo, warmHi, bound); err != nil {
		t.Fatal(err)
	}
	warm := s.TileCache().Stats()
	decodes := s.Stats().TileDecodes
	if warm.Entries != 32 || warm.Evictions != 0 {
		t.Fatalf("warming half the field: %+v, want 32 entries and no eviction", warm)
	}

	gateErr := errors.New("admission denied")
	deny := RetrieveOptions{Gate: func() error { return gateErr }}
	if _, err := s.RetrieveRegionOpts("field", []int{32, 0, 0}, []int{64, 64, 64}, bound, deny); !errors.Is(err, gateErr) {
		t.Fatalf("refused retrieval: err = %v, want gate error", err)
	}
	if got := s.TileCache().Stats(); got != warm {
		t.Fatalf("refused retrieval changed the tile cache: %+v -> %+v", warm, got)
	}
	if _, err := s.RetrieveRegion("field", warmLo, warmHi, bound); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().TileDecodes; got != decodes {
		t.Fatalf("re-reading the warm half decoded %d tiles, want 0", got-decodes)
	}
}

// TestRetrieveWarmAllocFree pins the warm serve path's allocation count:
// a recycled Region answered entirely from cached tiles must not allocate.
func TestRetrieveWarmAllocFree(t *testing.T) {
	g := testField(t, grid.Shape{64, 64, 64})
	eb := 1e-6 * g.ValueRange()
	s := openStore(t, packOne(t, g, eb, grid.Shape{32, 32, 32}))
	lo, hi := []int{8, 8, 8}, []int{56, 56, 56}
	bound := 64 * eb

	reg, err := s.RetrieveRegion("field", lo, hi, bound)
	if err != nil {
		t.Fatal(err)
	}
	opts := RetrieveOptions{
		Reuse: reg,
		Gate:  func() error { t.Error("gate ran on a warm retrieval"); return nil },
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := s.RetrieveRegionOpts("field", lo, hi, bound, opts); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("warm recycled retrieval allocates %.1f objects/op, want 0", allocs)
	}
}
