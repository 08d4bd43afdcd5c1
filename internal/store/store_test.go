package store

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/grid"
)

// countingReaderAt counts the bytes served, so tests can assert that
// region queries do true partial I/O against the container.
type countingReaderAt struct {
	r io.ReaderAt
	n atomic.Int64
}

func (c *countingReaderAt) ReadAt(p []byte, off int64) (int, error) {
	n, err := c.r.ReadAt(p, off)
	c.n.Add(int64(n))
	return n, err
}

func testField(t testing.TB, shape grid.Shape) *grid.Grid[float64] {
	t.Helper()
	g, err := datagen.GenerateShape("Density", shape)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func packOne(t testing.TB, g *grid.Grid[float64], eb float64, chunk grid.Shape) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := Add(w, "field", g, WriteOptions{ErrorBound: eb, ChunkShape: chunk}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func openStore(t testing.TB, blob []byte) *Store {
	t.Helper()
	s, err := Open(bytes.NewReader(blob), int64(len(blob)))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func maxAbsDiff(a, b []float64) float64 {
	m := 0.0
	for i := range a {
		d := math.Abs(a[i] - b[i])
		if d > m {
			m = d
		}
	}
	return m
}

func TestTiling(t *testing.T) {
	til, err := newTiling(grid.Shape{10, 7}, grid.Shape{4, 3})
	if err != nil {
		t.Fatal(err)
	}
	if til.n != 9 {
		t.Fatalf("10x7 in 4x3 tiles: got %d chunks, want 9", til.n)
	}
	lo, hi := til.box(til.n - 1) // last chunk, clipped on both dims
	if lo[0] != 8 || hi[0] != 10 || lo[1] != 6 || hi[1] != 7 {
		t.Fatalf("last chunk box [%v,%v)", lo, hi)
	}
	got := til.intersectingInto(nil, []int{3, 2}, []int{5, 4})
	// Rows 0-1 x cols 0-1 of the 3x3 chunk grid.
	want := []int{0, 1, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("intersecting: got %v want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("intersecting: got %v want %v", got, want)
		}
	}
}

func TestCopyRegionRoundTrip(t *testing.T) {
	src := testField(t, grid.Shape{13, 9, 11})
	lo, hi := []int{2, 1, 3}, []int{11, 8, 10}
	shape := []int{9, 7, 7}
	dst := make([]float64, 9*7*7)
	CopyRegion(dst, shape, lo, src.Data(), src.Shape(), []int{0, 0, 0}, lo, hi)
	for x := lo[0]; x < hi[0]; x++ {
		for y := lo[1]; y < hi[1]; y++ {
			for z := lo[2]; z < hi[2]; z++ {
				got := dst[((x-lo[0])*7+(y-lo[1]))*7+(z-lo[2])]
				if got != src.At(x, y, z) {
					t.Fatalf("CopyRegion mismatch at (%d,%d,%d)", x, y, z)
				}
			}
		}
	}
}

// TestCopyRegionAboveStackRank: a rank the stack arrays cannot hold is
// peeled down to one they can; the copy is the same. The box is off the
// origin in both peeled dimensions and in the last.
func TestCopyRegionAboveStackRank(t *testing.T) {
	const r = maxStackRank + 2
	srcShape, srcLo, lo, hi := make([]int, r), make([]int, r), make([]int, r), make([]int, r)
	for d := range srcShape {
		srcShape[d], srcLo[d], lo[d], hi[d] = 2, 10*d, 10*d, 10*d+2
	}
	srcShape[0], lo[0], hi[0] = 3, 1, 3
	srcShape[1], lo[1], hi[1] = 3, 11, 12
	srcShape[r-1], lo[r-1], hi[r-1] = 4, 10*(r-1)+1, 10*(r-1)+3
	dstShape := make([]int, r)
	for d := range dstShape {
		dstShape[d] = hi[d] - lo[d]
	}
	src := make([]float64, grid.Shape(srcShape).Len())
	for i := range src {
		src[i] = float64(i)
	}
	dst := make([]float64, boxLen(lo, hi))
	CopyRegion(dst, dstShape, lo, src, srcShape, srcLo, lo, hi)
	srcStr := grid.Shape(srcShape).Strides()
	for i, v := range dst {
		// dst is exactly the box, so its flat index decodes to box coordinates.
		at, rem := 0, i
		for d := r - 1; d >= 0; d-- {
			at += (lo[d] + rem%dstShape[d] - srcLo[d]) * srcStr[d]
			rem /= dstShape[d]
		}
		if v != src[at] {
			t.Fatalf("rank-%d copy: dst[%d] = %g, want src[%d] = %g", r, i, v, at, src[at])
		}
	}
}

func TestStoreRoundTrip(t *testing.T) {
	g := testField(t, grid.Shape{40, 56, 48})
	eb := 1e-4 * g.ValueRange()
	blob := packOne(t, g, eb, grid.Shape{16, 16, 16})
	s := openStore(t, blob)

	full, err := s.RetrieveDataset("field", 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := maxAbsDiff(full.Data(), g.Data()); got > eb {
		t.Fatalf("full-fidelity error %g exceeds bound %g", got, eb)
	}
	if full.Chunks() != 3*4*3 {
		t.Fatalf("full retrieval touched %d chunks, want %d", full.Chunks(), 3*4*3)
	}
}

// TestRegionMatchesFull is the ROI correctness acceptance check: the
// region retrieval must match the same region of a full decompression
// within the requested bound.
func TestRegionMatchesFull(t *testing.T) {
	g := testField(t, grid.Shape{48, 48, 48})
	eb := 1e-5 * g.ValueRange()
	blob := packOne(t, g, eb, grid.Shape{16, 16, 16})
	bound := 64 * eb

	s := openStore(t, blob)
	lo, hi := []int{7, 12, 0}, []int{41, 30, 33} // straddles many chunks
	reg, err := s.RetrieveRegion("field", lo, hi, bound)
	if err != nil {
		t.Fatal(err)
	}
	if reg.GuaranteedError() > bound {
		t.Fatalf("guaranteed error %g exceeds requested bound %g", reg.GuaranteedError(), bound)
	}

	// Same region cut from a full retrieval at the same bound, via a fresh
	// store so no cache state is shared.
	s2 := openStore(t, blob)
	full, err := s2.RetrieveDataset("field", bound)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, boxLen(lo, hi))
	shape := reg.Shape()
	CopyRegion(want, shape, lo, full.Data(), g.Shape(), []int{0, 0, 0}, lo, hi)
	if d := maxAbsDiff(reg.Data(), want); d != 0 {
		t.Errorf("region differs from full decompression by %g", d)
	}

	// And against the original data, the requested bound must hold.
	orig := make([]float64, boxLen(lo, hi))
	CopyRegion(orig, shape, lo, g.Data(), g.Shape(), []int{0, 0, 0}, lo, hi)
	if d := maxAbsDiff(reg.Data(), orig); d > bound {
		t.Errorf("region error %g exceeds requested bound %g", d, bound)
	}
}

// TestRegionPartialIO is the partial-I/O acceptance check: retrieving a
// ~12.5%-volume region must read well under 25% of the container's bytes.
func TestRegionPartialIO(t *testing.T) {
	g := testField(t, grid.Shape{64, 64, 64})
	eb := 1e-5 * g.ValueRange()
	blob := packOne(t, g, eb, grid.Shape{16, 16, 16}) // 64 chunks
	cr := &countingReaderAt{r: bytes.NewReader(blob)}
	s, err := Open(cr, int64(len(blob)))
	if err != nil {
		t.Fatal(err)
	}
	setup := cr.n.Load() // preamble + footer + index

	if _, err := s.RetrieveRegion("field", []int{0, 0, 0}, []int{32, 32, 16}, 0); err != nil {
		t.Fatal(err)
	}
	read := cr.n.Load()
	if limit := int64(len(blob)) / 4; read >= limit {
		t.Errorf("12.5%% region read %d of %d container bytes (>= 25%%), index/setup %d",
			read, len(blob), setup)
	}
}

// TestRegionCacheReuse: an identical follow-up query must be served
// entirely from the decoded-chunk cache, and a tighter follow-up must load
// only incremental bitplanes, not re-read what is already decoded.
func TestRegionCacheReuse(t *testing.T) {
	g := testField(t, grid.Shape{48, 48, 48})
	eb := 1e-6 * g.ValueRange()
	// A low progressive threshold makes even 16³ chunks bitplane-
	// progressive, so tighter bounds genuinely load more planes.
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := Add(w, "field", g, WriteOptions{
		ErrorBound: eb, ChunkShape: grid.Shape{16, 16, 16}, ProgressiveThreshold: 128,
	}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()
	cr := &countingReaderAt{r: bytes.NewReader(blob)}
	s, err := Open(cr, int64(len(blob)))
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := []int{0, 0, 0}, []int{32, 32, 32}
	coarse := 4096 * eb
	r1, err := s.RetrieveRegion("field", lo, hi, coarse)
	if err != nil {
		t.Fatal(err)
	}
	after1 := cr.n.Load()

	r2, err := s.RetrieveRegion("field", lo, hi, coarse)
	if err != nil {
		t.Fatal(err)
	}
	if got := cr.n.Load() - after1; got != 0 {
		t.Errorf("repeated identical query read %d bytes, want 0", got)
	}
	if r2.LoadedBytes() != 0 {
		t.Errorf("repeated query reports %d loaded bytes, want 0", r2.LoadedBytes())
	}
	if d := maxAbsDiff(r1.Data(), r2.Data()); d != 0 {
		t.Errorf("cached replay differs by %g", d)
	}

	// Refinement: tighter bound reads more, but less than a cold retrieval
	// at the tight bound would.
	r3, err := s.RetrieveRegion("field", lo, hi, 16*eb)
	if err != nil {
		t.Fatal(err)
	}
	refineRead := cr.n.Load() - after1
	if refineRead == 0 {
		t.Fatalf("tighter query read nothing")
	}
	if r3.GuaranteedError() > 16*eb {
		t.Errorf("refined guarantee %g exceeds bound %g", r3.GuaranteedError(), 16*eb)
	}

	cold := &countingReaderAt{r: bytes.NewReader(blob)}
	s2, err := Open(cold, int64(len(blob)))
	if err != nil {
		t.Fatal(err)
	}
	before := cold.n.Load()
	if _, err := s2.RetrieveRegion("field", lo, hi, 16*eb); err != nil {
		t.Fatal(err)
	}
	coldRead := cold.n.Load() - before
	if refineRead >= coldRead {
		t.Errorf("refinement read %d bytes, cold retrieval %d — refinement should be incremental",
			refineRead, coldRead)
	}
}

// TestCachedTileRefinedIsFreshRetrieval: what the cache answers with does
// not depend on what it was asked before. Float64 tiles taken 1024·eb →
// 32·eb → eb through one store's cache hold, at every rung, the bits a fresh
// store returns when asked for that bound once.
func TestCachedTileRefinedIsFreshRetrieval(t *testing.T) {
	g := testField(t, grid.Shape{48, 48, 48})
	eb := 1e-6 * g.ValueRange()
	blob := packOne(t, g, eb, grid.Shape{32, 32, 32})
	lo, hi := []int{5, 0, 9}, []int{40, 32, 48}
	cached := openStore(t, blob)
	for _, factor := range []float64{1024, 32, 1} {
		reg, err := cached.RetrieveRegion("field", lo, hi, factor*eb)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := openStore(t, blob).RetrieveRegion("field", lo, hi, factor*eb)
		if err != nil {
			t.Fatal(err)
		}
		if factor != 1024 && reg.LoadedBytes() >= fresh.LoadedBytes() {
			t.Errorf("%g·eb: refinement loaded %d bytes, a cold retrieval %d", factor, reg.LoadedBytes(), fresh.LoadedBytes())
		}
		got, want := reg.Data(), fresh.Data()
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%g·eb: value %d through the cache is %x, from a fresh store %x",
					factor, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
			}
		}
	}
}

// failingReaderAt fails every read while down is set.
type failingReaderAt struct {
	r    io.ReaderAt
	down atomic.Bool
}

var errBackendDown = errors.New("backend down")

func (f *failingReaderAt) ReadAt(p []byte, off int64) (int, error) {
	if f.down.Load() {
		return 0, errBackendDown
	}
	return f.r.ReadAt(p, off)
}

// TestFailedRefineKeepsCachedTile: a refinement whose reads fail leaves
// the cached tile at its previous plan, so a request that plan covers is
// still a cache hit, and once the reads recover the tile refines to the
// bits a fresh store returns.
func TestFailedRefineKeepsCachedTile(t *testing.T) {
	g := testField(t, grid.Shape{32, 32, 32})
	eb := 1e-6 * g.ValueRange()
	blob := packOne(t, g, eb, grid.Shape{32, 32, 32})
	src := &failingReaderAt{r: bytes.NewReader(blob)}
	s, err := Open(src, int64(len(blob)))
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := []int{0, 0, 0}, []int{32, 32, 32}
	coarse := 4096 * eb
	warm, err := s.RetrieveRegion("field", lo, hi, coarse)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]float64(nil), warm.Data()...)

	src.down.Store(true)
	if _, err := s.RetrieveRegion("field", lo, hi, eb); !errors.Is(err, errBackendDown) {
		t.Fatalf("refine with the backend down: err = %v, want %v", err, errBackendDown)
	}
	before := s.Stats()
	reg, err := s.RetrieveRegion("field", lo, hi, coarse)
	if err != nil {
		t.Fatalf("the cached plan after a failed refine: %v", err)
	}
	st := s.Stats()
	if hits, decodes := st.TileHits-before.TileHits, st.TileDecodes-before.TileDecodes; hits != 1 || decodes != 0 {
		t.Errorf("the cached plan after a failed refine: %d hits, %d decodes, want 1 and 0", hits, decodes)
	}
	for i, v := range reg.Data() {
		if math.Float64bits(v) != math.Float64bits(want[i]) {
			t.Fatalf("value %d after a failed refine is %x, was %x", i, math.Float64bits(v), math.Float64bits(want[i]))
		}
	}

	src.down.Store(false)
	got, err := s.RetrieveRegion("field", lo, hi, eb)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := openStore(t, blob).RetrieveRegion("field", lo, hi, eb)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range fresh.Data() {
		if math.Float64bits(got.Data()[i]) != math.Float64bits(v) {
			t.Fatalf("value %d refined after recovery is %x, from a fresh store %x",
				i, math.Float64bits(got.Data()[i]), math.Float64bits(v))
		}
	}
}

func TestMultiDataset(t *testing.T) {
	a := testField(t, grid.Shape{24, 24, 24})
	b, err := datagen.GenerateShape("Wave", grid.Shape{20, 28})
	if err != nil {
		t.Fatal(err)
	}
	ebA := 1e-4 * a.ValueRange()
	ebB := 1e-3 * b.ValueRange()

	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := Add(w, "density", a, WriteOptions{ErrorBound: ebA, ChunkShape: grid.Shape{16, 16, 16}}); err != nil {
		t.Fatal(err)
	}
	if err := Add(w, "wave", b, WriteOptions{ErrorBound: ebB, ChunkShape: grid.Shape{8, 8}}); err != nil {
		t.Fatal(err)
	}
	if err := Add(w, "density", a, WriteOptions{ErrorBound: ebA}); err == nil {
		t.Fatal("duplicate dataset name accepted")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	s := openStore(t, buf.Bytes())
	infos := s.Datasets()
	if len(infos) != 2 || infos[0].Name != "density" || infos[1].Name != "wave" {
		t.Fatalf("datasets: %+v", infos)
	}
	if infos[0].NumChunks != 8 || infos[1].NumChunks != 3*4 {
		t.Fatalf("chunk counts: %d, %d", infos[0].NumChunks, infos[1].NumChunks)
	}
	ra, err := s.RetrieveDataset("density", 0)
	if err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(ra.Data(), a.Data()); d > ebA {
		t.Errorf("density error %g > %g", d, ebA)
	}
	rb, err := s.RetrieveRegion("wave", []int{3, 5}, []int{17, 23}, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, boxLen([]int{3, 5}, []int{17, 23}))
	CopyRegion(want, rb.Shape(), []int{3, 5}, b.Data(), b.Shape(), []int{0, 0}, []int{3, 5}, []int{17, 23})
	if d := maxAbsDiff(rb.Data(), want); d > ebB {
		t.Errorf("wave region error %g > %g", d, ebB)
	}
}

func TestRetrieveErrors(t *testing.T) {
	g := testField(t, grid.Shape{16, 16, 16})
	eb := 1e-4 * g.ValueRange()
	blob := packOne(t, g, eb, nil) // default chunk shape, clipped to 16³
	s := openStore(t, blob)

	if _, err := s.RetrieveRegion("nope", []int{0, 0, 0}, []int{1, 1, 1}, 0); err == nil {
		t.Error("unknown dataset accepted")
	}
	if _, err := s.RetrieveRegion("field", []int{0, 0}, []int{1, 1}, 0); err == nil {
		t.Error("rank mismatch accepted")
	}
	if _, err := s.RetrieveRegion("field", []int{0, 0, 0}, []int{17, 1, 1}, 0); err == nil {
		t.Error("out-of-bounds region accepted")
	}
	if _, err := s.RetrieveRegion("field", []int{2, 2, 2}, []int{2, 4, 4}, 0); err == nil {
		t.Error("empty region accepted")
	}
	if _, err := s.RetrieveRegion("field", []int{0, 0, 0}, []int{8, 8, 8}, eb/2); !isBoundErr(err) {
		t.Errorf("too-tight bound: got %v, want ErrBoundTooTight", err)
	}
}

func isBoundErr(err error) bool { return err == core.ErrBoundTooTight }

// TestChunkArchiveMustBeItsBox re-points the one chunk record of a 32³
// dataset at the archive of another dataset, which is what Open returns
// for a corrupt or mis-assembled container: Open reads no archive. The
// store strides a decoded tile by its record's box, so a tile of another
// shape must be refused by every route that opens it: with the same
// element count (16×64×32) it would be served with wrong data, and with
// fewer elements (16×32×32) the region copy would run off the end of the
// tile on a helper goroutine, which ends the process. A recycled tile
// backing is not zeroed, so a mismatched tile could also serve another
// tile's stale values.
func TestChunkArchiveMustBeItsBox(t *testing.T) {
	for _, other := range []grid.Shape{{16, 64, 32}, {16, 32, 32}} {
		t.Run(fmt.Sprint(other), func(t *testing.T) {
			g := testField(t, grid.Shape{32, 32, 32})
			h := testField(t, other)
			eb := 1e-4 * g.ValueRange()
			var buf bytes.Buffer
			w, err := NewWriter(&buf)
			if err != nil {
				t.Fatal(err)
			}
			for _, add := range []struct {
				name string
				g    *grid.Grid[float64]
			}{{"field", g}, {"other", h}} {
				if err := Add(w, add.name, add.g, WriteOptions{ErrorBound: eb, ChunkShape: add.g.Shape()}); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			s := openStore(t, buf.Bytes())
			rec, src := &s.datasets["field"].chunks[0], s.datasets["other"].chunks[0]
			rec.off, rec.size = src.off, src.size

			lo, hi := []int{0, 0, 0}, []int{32, 32, 32}
			if r, err := s.RetrieveRegion("field", lo, hi, 0); err == nil {
				t.Errorf("a %v archive served for a 32³ box, max |error| %g against a bound of %g",
					other, maxAbsDiff(r.Data(), g.Data()), eb)
			}
			if _, err := s.PlanRegion("field", lo, hi, 0, 0); err == nil {
				t.Errorf("a %v archive planned for a 32³ box", other)
			}
			// The dataset the archive belongs to still serves it.
			r, err := s.RetrieveDataset("other", 0)
			if err != nil {
				t.Fatal(err)
			}
			if d := maxAbsDiff(r.Data(), h.Data()); d > eb {
				t.Errorf("other: error %g > %g", d, eb)
			}
		})
	}
}

func TestOpenRejectsGarbage(t *testing.T) {
	if _, err := Open(bytes.NewReader(nil), 0); err == nil {
		t.Error("empty container accepted")
	}
	junk := bytes.Repeat([]byte{0xAB}, 256)
	if _, err := Open(bytes.NewReader(junk), int64(len(junk))); err == nil {
		t.Error("junk container accepted")
	}
	// A valid container with a truncated tail must fail cleanly.
	g := testField(t, grid.Shape{16, 16, 16})
	blob := packOne(t, g, 1e-3*g.ValueRange(), nil)
	if _, err := Open(bytes.NewReader(blob[:len(blob)-9]), int64(len(blob)-9)); err == nil {
		t.Error("truncated container accepted")
	}
}

// TestOpenRejectsHugeCounts: a tiny container whose index declares 2^32-1
// datasets must fail with errCorrupt before allocating for them.
func TestOpenRejectsHugeCounts(t *testing.T) {
	var buf bytes.Buffer
	buf.Write(marshalPreamble())
	idxOff := int64(buf.Len())
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF}) // dataset count u32
	buf.Write(marshalFooter(idxOff, 4, Version))
	if _, err := Open(bytes.NewReader(buf.Bytes()), int64(buf.Len())); err == nil {
		t.Error("index with 2^32-1 datasets accepted")
	}
}

func TestCacheEviction(t *testing.T) {
	g := testField(t, grid.Shape{32, 32, 32})
	eb := 1e-4 * g.ValueRange()
	blob := packOne(t, g, eb, grid.Shape{16, 16, 16}) // 8 chunks, 32 KiB decoded each
	s := openStore(t, blob)
	chunkBytes := 16 * 16 * 16 * cachedBytesPerElem(core.Float64)
	s.SetCacheBytes(2 * chunkBytes) // room for 2 decoded chunks
	full, err := s.RetrieveDataset("field", 0)
	if err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(full.Data(), g.Data()); d > eb {
		t.Errorf("error %g > %g with tiny cache", d, eb)
	}
	// Budget invariant: the whole cache is within its budget, which holds
	// exactly the two most recent chunks; every entry is charged, and at
	// full fidelity, where it keeps no indices, its values only.
	valueBytes := int64(16 * 16 * 16 * core.Float64.Bytes())
	if st := s.TileCache().Stats(); st.Bytes > 2*chunkBytes || st.Entries != 2 || st.Bytes != st.Entries*valueBytes || st.Evictions != 6 {
		t.Errorf("a two-chunk cache after reading 8 chunks holds %+v", st)
	}
	// Disabled cache still serves queries.
	s.SetCacheBytes(0)
	if _, err := s.RetrieveRegion("field", []int{0, 0, 0}, []int{8, 8, 8}, 0); err != nil {
		t.Fatal(err)
	}
}
