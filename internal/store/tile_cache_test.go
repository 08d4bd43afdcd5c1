package store

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/cas"
	"repro/internal/core"
	"repro/internal/grid"
)

// packSeries stages steps snapshots of seriesGrid in a fresh CAS and
// returns it with their manifests. The low progressive threshold makes
// 16³ tiles bitplane-progressive, so a tighter bound is a real refine.
func packSeries(t *testing.T, shape, chunk []int, steps int, churn map[int][]int, eb float64) (*cas.Store, []*cas.Manifest) {
	t.Helper()
	c, err := cas.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ms := make([]*cas.Manifest, steps)
	for s := range ms {
		g := seriesGrid(t, shape, chunk, s, churn)
		if ms[s], _, err = PackSnapshot(c, "density", g, WriteOptions{ErrorBound: eb, ChunkShape: chunk, ProgressiveThreshold: 128}); err != nil {
			t.Fatalf("t%d: %v", s, err)
		}
	}
	return c, ms
}

// openShared opens snapshot t of the series on the shared cache.
func openShared(t *testing.T, c *cas.Store, step int, tiles *TileCache) *Store {
	t.Helper()
	s, err := OpenSnapshot(c, "density", step)
	if err != nil {
		t.Fatal(err)
	}
	if tiles != nil {
		s.SetTileCache(tiles)
	}
	return s
}

// statsDelta runs fn and returns what it added to the store's counters.
func statsDelta(s *Store, fn func()) Stats {
	before := s.Stats()
	fn()
	after := s.Stats()
	return Stats{
		TileDecodes: after.TileDecodes - before.TileDecodes,
		TileRefines: after.TileRefines - before.TileRefines,
		TileHits:    after.TileHits - before.TileHits,
	}
}

// TestSharedCacheDecodesWhatChanged: on one TileCache, reading the same
// box of t and then of t+1 decodes exactly the tiles whose blob changed
// and hits on the rest; tightening through t+1 refines the tiles t
// decoded in place; and what comes back is bit for bit what a store with
// a cache of its own returns.
func TestSharedCacheDecodesWhatChanged(t *testing.T) {
	shape, chunk := []int{48, 40, 40}, []int{16, 16, 16} // 27 tiles
	const eb = 1e-6
	churn := map[int][]int{1: {0, 4, 13}, 2: {4, 26}}
	c, ms := packSeries(t, shape, chunk, 3, churn, eb)
	tiles := NewTileCache(DefaultCacheBytes)
	lo, hi := []int{4, 4, 4}, []int{30, 30, 30} // tiles {0,1}x{0,1}x{0,1}: 8 of them

	s0 := openShared(t, c, 0, tiles)
	name0, name1 := ms[0].Name(), ms[1].Name()
	inBox := s0.datasets[name0].til.intersectingInto(nil, lo, hi)
	changed := 0
	for _, ci := range inBox {
		if ms[0].Tiles[ci].Score != ms[1].Tiles[ci].Score {
			changed++
		}
	}
	if len(inBox) != 8 || changed != 3 {
		t.Fatalf("box touches %d tiles of which %d change at t1; the test wants 8 and 3", len(inBox), changed)
	}

	d := statsDelta(s0, func() {
		if _, err := s0.RetrieveRegion(name0, lo, hi, 64*eb); err != nil {
			t.Fatal(err)
		}
	})
	if d.TileDecodes != 8 || d.TileHits != 0 {
		t.Fatalf("first read of t0: %+v, want 8 decodes", d)
	}

	s1 := openShared(t, c, 1, tiles)
	var got *Region
	d = statsDelta(s1, func() {
		var err error
		if got, err = s1.RetrieveRegion(name1, lo, hi, 64*eb); err != nil {
			t.Fatal(err)
		}
	})
	if d.TileDecodes != int64(changed) || d.TileHits != int64(8-changed) || d.TileRefines != 0 {
		t.Fatalf("same box of t1: %+v, want %d decodes and %d hits", d, changed, 8-changed)
	}
	private := openShared(t, c, 1, nil)
	want, err := private.RetrieveRegion(name1, lo, hi, 64*eb)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Data(), want.Data()) || got.GuaranteedError() != want.GuaranteedError() {
		t.Fatal("t1 through the shared cache differs from t1 through a cache of its own")
	}

	// Tighter, through t1: every tile of the box is resident, five of them
	// decoded on behalf of t0.
	d = statsDelta(s1, func() {
		if got, err = s1.RetrieveRegion(name1, lo, hi, eb); err != nil {
			t.Fatal(err)
		}
	})
	if d.TileDecodes != 0 || d.TileRefines != 8 {
		t.Fatalf("tightening t1: %+v, want 8 refines and no decode", d)
	}
	if want, err = private.RetrieveRegion(name1, lo, hi, eb); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Data(), want.Data()) {
		t.Fatal("t1 refined through the shared cache differs from t1 refined in a cache of its own")
	}
	// t0 sees its unchanged tiles at the fidelity t1 raised them to.
	d = statsDelta(s0, func() {
		if _, err := s0.RetrieveRegion(name0, lo, hi, eb); err != nil {
			t.Fatal(err)
		}
	})
	if d.TileHits != int64(8-changed) || d.TileRefines != int64(changed) {
		t.Fatalf("tightening t0 after t1: %+v, want %d hits and %d refines", d, 8-changed, changed)
	}

	// Planning peeks at the same entries and must not depend on them.
	planShared, err := s1.PlanRegion(name1, lo, hi, 4*eb, 64*eb)
	if err != nil {
		t.Fatal(err)
	}
	planFresh, err := openShared(t, c, 1, nil).PlanRegion(name1, lo, hi, 4*eb, 64*eb)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(planShared, planFresh) {
		t.Fatal("a refinement plan differs between the shared cache and a fresh store")
	}
	if st := tiles.Stats(); st.Entries != int64(8+changed) || st.Evictions != 0 {
		t.Fatalf("cache holds %+v, want %d entries", st, 8+changed)
	}
}

// TestSharedCacheConcurrentSnapshots reads four snapshots on one cache
// from many goroutines at mixed bounds: every value must honour its
// request's bound against its own snapshot's data while other goroutines
// decode and refine the same tiles through other snapshots, and each blob
// is decoded once for all of them. Under -race this is the shared cache's
// concurrency-safety proof.
func TestSharedCacheConcurrentSnapshots(t *testing.T) {
	shape, chunk := []int{32, 32, 32}, []int{16, 16, 16} // 8 tiles
	const steps, eb = 4, 1e-6
	churn := map[int][]int{1: {0, 7}, 2: {3}, 3: {0, 5}}
	c, ms := packSeries(t, shape, chunk, steps, churn, eb)
	tiles := NewTileCache(DefaultCacheBytes)
	blobs := make(map[cas.Score]bool)
	var stores []*Store
	var fields [][]float64
	for s := 0; s < steps; s++ {
		stores = append(stores, openShared(t, c, s, tiles))
		fields = append(fields, seriesGrid(t, shape, chunk, s, churn).Data())
		for _, tr := range ms[s].Tiles {
			blobs[tr.Score] = true
		}
	}
	bounds := []float64{1024 * eb, 32 * eb, eb}
	var wg sync.WaitGroup
	errs := make(chan error, steps*len(bounds)*2)
	for round := 0; round < 2; round++ {
		for s := range stores {
			for _, bound := range bounds {
				wg.Add(1)
				go func() {
					defer wg.Done()
					reg, err := stores[s].RetrieveDataset(ms[s].Name(), bound)
					if err != nil {
						errs <- err
						return
					}
					if d := maxAbsDiff(reg.Data(), fields[s]); d > bound || reg.GuaranteedError() > bound {
						errs <- fmt.Errorf("t%d at %g: off by %g, guaranteed %g", s, bound, d, reg.GuaranteedError())
					}
				}()
			}
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	var decodes int64
	for _, s := range stores {
		decodes += s.Stats().TileDecodes
	}
	if decodes != int64(len(blobs)) || tiles.Stats().Entries != decodes {
		t.Fatalf("%d decodes and %d entries for %d distinct blobs across %d snapshots", decodes, tiles.Stats().Entries, len(blobs), steps)
	}
}

// TestSharedCacheBudgetAcrossSnapshots: fifty snapshots each read once
// through one cache never charge it more than its budget plus one tile,
// however many stores are attached, and each entry is charged what its
// tile retains, at most its admission charge.
func TestSharedCacheBudgetAcrossSnapshots(t *testing.T) {
	shape, chunk := []int{32, 32, 32}, []int{16, 16, 16} // 8 tiles
	const steps, eb = 50, 1e-6
	churn := make(map[int][]int)
	for s := 1; s < steps; s++ {
		churn[s] = []int{s % 8, (3*s + 1) % 8}
	}
	c, ms := packSeries(t, shape, chunk, steps, churn, eb)
	tile := int64(16*16*16) * cachedBytesPerElem(core.Float64)
	budget := 5 * tile / 2 // two and a half tiles
	tiles := NewTileCache(budget)
	for s := 0; s < steps; s++ {
		st := openShared(t, c, s, tiles)
		if _, err := st.RetrieveDataset(ms[s].Name(), 16*eb); err != nil {
			t.Fatal(err)
		}
		var retains int64
		for _, el := range tiles.entries {
			retains += el.Value.(*chunkEntry).res.RetainedBytes()
		}
		if got := tiles.Stats(); got.Bytes > budget+tile || got.Bytes > got.Entries*tile || got.Bytes != retains {
			t.Fatalf("after t%d the cache is charged %d bytes for %d entries retaining %d; the budget is %d + one %d-byte tile", s, got.Bytes, got.Entries, retains, budget, tile)
		}
	}
	// More distinct blobs went through than the budget holds.
	if st := tiles.Stats(); st.Evictions == 0 {
		t.Fatalf("nothing was evicted (%+v): the budget was never under pressure", st)
	}
}

// TestSharedCachePackedContainersIsolated: two packed containers that
// both hold a dataset named "density" share a cache without ever serving
// each other's tiles.
func TestSharedCachePackedContainersIsolated(t *testing.T) {
	shape, chunk := grid.Shape{32, 32, 32}, grid.Shape{16, 16, 16}
	tiles := NewTileCache(DefaultCacheBytes)
	var stores []*Store
	var fields []*grid.Grid[float64]
	for k := 0; k < 2; k++ {
		g := seriesGrid(t, shape, chunk, k, map[int][]int{1: {0, 1, 2, 3, 4, 5, 6, 7}})
		s := openStore(t, packOffline(t, "density", g, WriteOptions{ErrorBound: 1e-4, ChunkShape: chunk}))
		s.SetTileCache(tiles)
		stores, fields = append(stores, s), append(fields, g)
	}
	for round := 0; round < 2; round++ {
		for k, s := range stores {
			reg, err := s.RetrieveDataset("density", 0)
			if err != nil {
				t.Fatal(err)
			}
			if d := maxAbsDiff(reg.Data(), fields[k].Data()); d > 1e-4 {
				t.Fatalf("round %d: container %d is off its own data by %g", round, k, d)
			}
		}
	}
	for k, s := range stores {
		if st := s.Stats(); st.TileDecodes != 8 || st.TileHits != 8 {
			t.Errorf("container %d: %+v, want 8 decodes then 8 hits of its own tiles", k, st)
		}
	}
	if st := tiles.Stats(); st.Entries != 16 {
		t.Errorf("cache holds %d entries for two 8-tile containers", st.Entries)
	}
}

// TestSetCacheBytesLeavesSharedCacheAlone: on a store attached to a shared
// cache SetCacheBytes is an error, and the budget and tiles of every store
// on that cache stay as they were; a store with a cache of its own still
// resizes it.
func TestSetCacheBytesLeavesSharedCacheAlone(t *testing.T) {
	shape, chunk := grid.Shape{32, 32, 32}, grid.Shape{16, 16, 16}
	pack := packOffline(t, "density", seriesGrid(t, shape, chunk, 0, nil), WriteOptions{ErrorBound: 1e-4, ChunkShape: chunk})
	tiles := NewTileCache(DefaultCacheBytes)
	var stores []*Store
	for k := 0; k < 2; k++ {
		s := openStore(t, pack)
		s.SetTileCache(tiles)
		if _, err := s.RetrieveDataset("density", 0); err != nil {
			t.Fatal(err)
		}
		stores = append(stores, s)
	}
	before := tiles.Stats()
	stores[1].SetCacheBytes(0)
	if after := tiles.Stats(); after != before {
		t.Errorf("SetCacheBytes(0) on one attached store moved the shared cache: %+v, then %+v", before, after)
	}
	if got := tiles.cap; got != DefaultCacheBytes {
		t.Fatalf("the shared budget is %d after SetCacheBytes(0) on one attached store, want %d", got, DefaultCacheBytes)
	}
	set, ok := any(stores[0]).(interface{ SetCacheBytes(int64) error })
	if !ok {
		t.Fatal("SetCacheBytes reports no error")
	}
	if err := set.SetCacheBytes(1); err == nil {
		t.Error("SetCacheBytes on an attached store returned no error")
	}

	own := openStore(t, pack)
	if _, err := own.RetrieveDataset("density", 0); err != nil {
		t.Fatal(err)
	}
	own.SetCacheBytes(0)
	if st := own.TileCache().Stats(); st.Entries != 0 {
		t.Errorf("a private cache resized to 0 still holds %d tiles", st.Entries)
	}
}

// liveHeap is the heap in use after two collections: the second frees what
// the first moved out of the sync.Pools, so pooled scratch is not counted.
func liveHeap() int64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestCachedTileChargeIsRetainedHeap holds what the tile cache charges an
// element to what a cached tile keeps alive. Eight 32³ tiles are decoded at
// each width and at three bounds, from few planes to all of them. What the
// cache retains — the live heap with the tiles cached, less the live heap
// once they are evicted — must be what the cache charges them to within
// half a byte an element either way: above it the budget would be a lie,
// below it the cache would hold fewer tiles than its budget pays for. The
// charge is what each tile's result retains: its values and its decoded
// planes below full fidelity, the values alone at it, where a tile keeps
// no planes. (What is not values and planes — the parsed archive headers,
// the entries — measures 0.13 B/elem for float64 tiles and 0.21 for
// float32 ones.)
func TestCachedTileChargeIsRetainedHeap(t *testing.T) {
	const tolerance = 0.5 // B/elem
	g := testField(t, grid.Shape{64, 64, 64})
	eb := 1e-6 * g.ValueRange()
	opts := WriteOptions{ErrorBound: eb, ChunkShape: grid.Shape{32, 32, 32}}
	for _, scalar := range []core.ScalarType{core.Float64, core.Float32} {
		var buf bytes.Buffer
		w, err := NewWriter(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if scalar == core.Float32 {
			err = Add(w, "field", grid.Narrow(g), opts)
		} else {
			err = Add(w, "field", g, opts)
		}
		if err == nil {
			err = w.Close()
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, factor := range []float64{1024, 32, 1} {
			s := openStore(t, buf.Bytes())
			if _, err := s.RetrieveDataset("field", factor*eb); err != nil {
				t.Fatal(err)
			}
			charge := float64(s.cache.Stats().Bytes) / float64(g.Len())
			var retains int64
			for _, el := range s.cache.entries {
				retains += el.Value.(*chunkEntry).res.RetainedBytes()
			}
			if want := float64(retains) / float64(g.Len()); factor == 1 {
				if values := float64(scalar.Bytes()); charge != values {
					t.Errorf("%v at full fidelity: charged %.2f B/elem, want the values' %.0f", scalar, charge, values)
				}
			} else if charge != want || charge <= float64(scalar.Bytes()) {
				t.Errorf("%v at %g·eb: charged %.2f B/elem, the tiles retain %.2f beside %d of values", scalar, factor, charge, want, scalar.Bytes())
			}
			held := liveHeap()
			s.SetCacheBytes(0)
			retained := float64(held-liveHeap()) / float64(g.Len())
			t.Logf("%v at %g·eb: %.2f B/elem retained, %.2f charged", scalar, factor, retained, charge)
			if retained > charge+tolerance || retained < charge-tolerance {
				t.Errorf("%v at %g·eb: a cached tile retains %.2f B/elem, the cache charges %.2f", scalar, factor, retained, charge)
			}
		}
	}
}
