package store

import (
	"bytes"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/grid"
)

// recycleShape tiles at 32³ into eight boxes of five lengths (32, 24 × 32,
// 8 × 32, 28 along each axis), three of them in one size class and three
// in another, so recycled backings meet tiles shorter and longer than the
// tile they came from.
var recycleShape, recycleChunk = grid.Shape{56, 40, 60}, grid.Shape{32, 32, 32}

// recycleFixture packs recycleShape at both scalar widths, bitplane-
// progressive (a tighter bound is a real refine), and returns the
// container, the bound ladder and, per dataset and bound, what a store
// with a cache of its own returns for the whole dataset.
func recycleFixture(t *testing.T) (blob []byte, bounds []float64, want map[string]map[float64][]float64) {
	t.Helper()
	g := testField(t, recycleShape)
	eb := 1e-5 * g.ValueRange()
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	opts := WriteOptions{ErrorBound: eb, ChunkShape: recycleChunk, ProgressiveThreshold: 128}
	if err := Add(w, "f64", g, opts); err != nil {
		t.Fatal(err)
	}
	if err := Add(w, "f32", grid.Narrow(g), opts); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	bounds = []float64{1024 * eb, 32 * eb, eb} // loosest first
	want = make(map[string]map[float64][]float64)
	for _, name := range []string{"f64", "f32"} {
		want[name] = make(map[float64][]float64)
		for _, b := range bounds {
			r, err := openStore(t, buf.Bytes()).RetrieveDataset(name, b)
			if err != nil {
				t.Fatal(err)
			}
			want[name][b] = r.Data()
		}
	}
	return buf.Bytes(), bounds, want
}

// checkRecycledRegion holds a region of a store whose cache recycles to
// the private-cache answers: every tile's overlap is bit for bit what a
// private-cache store returns at the requested bound or at a tighter one
// of the ladder (a tile cached tighter serves looser requests as it is).
func checkRecycledRegion(s *Store, name string, lo, hi []int, bound float64, r *Region, bounds []float64, want map[float64][]float64) error {
	if g := r.GuaranteedError(); g > bound {
		return fmt.Errorf("guarantees %g at a requested %g", g, bound)
	}
	got := r.Data()
	shape := r.Shape()
	for ci, rec := range s.datasets[name].chunks {
		clo, chi, ok := Intersect(lo, hi, rec.lo, rec.hi)
		if !ok {
			continue
		}
		matches := func(ref []float64) bool {
			for x := clo[0]; x < chi[0]; x++ {
				for y := clo[1]; y < chi[1]; y++ {
					for z := clo[2]; z < chi[2]; z++ {
						i := ((x-lo[0])*shape[1]+(y-lo[1]))*shape[2] + (z - lo[2])
						j := (x*recycleShape[1]+y)*recycleShape[2] + z
						if math.Float64bits(got[i]) != math.Float64bits(ref[j]) {
							return false
						}
					}
				}
			}
			return true
		}
		ok = false
		for _, b := range bounds {
			if b <= bound && matches(want[b]) {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("tile %d %v..%v is no private-cache answer at %g or tighter", ci, rec.lo, rec.hi, bound)
		}
	}
	return nil
}

// randomBox draws a non-empty box of recycleShape.
func randomBox(rng *rand.Rand) (lo, hi []int) {
	lo, hi = make([]int, 3), make([]int, 3)
	for d, n := range recycleShape {
		a, b := rng.Intn(n), rng.Intn(n)
		lo[d], hi[d] = min(a, b), max(a, b)+1
	}
	return lo, hi
}

// TestTileCacheRecycleConcurrent runs cold, warm and refining retrievals
// of both scalar widths from several goroutines through a cache of one or
// two tiles, so that nearly every admission evicts a tile and the next
// cold decode runs in its backings while other goroutines copy out of,
// refine and decode the tiles around it, and plan and read planes spans
// through the same entries. Every answer is bit for bit a private-cache
// store's, and every span the container's bytes. Under -race (CI runs
// TestTileCache* so) it is also the proof that an evicted entry is
// recycled only when nobody holds it, and that an entry's bytes are read
// and merged under its own lock.
func TestTileCacheRecycleConcurrent(t *testing.T) {
	blob, bounds, want := recycleFixture(t)
	for _, tiles := range []int64{1, 2} {
		t.Run(fmt.Sprintf("%d tiles", tiles), func(t *testing.T) {
			s := openStore(t, blob)
			s.SetCacheBytes(tiles * int64(recycleChunk.Len()) * cachedBytesPerElem(core.Float64))
			const workers, ops = 4, 24
			var wg sync.WaitGroup
			errs := make(chan error, workers)
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed))
					name := "f64"
					lo, hi := randomBox(rng)
					bound := bounds[0]
					for op := 0; op < ops; op++ {
						switch k := rng.Intn(4); {
						case k == 0: // warm: the same request again
						case k == 1: // refine: the same box, a rung tighter
							if i := slices.Index(bounds, bound); i+1 < len(bounds) {
								bound = bounds[i+1]
							}
						default: // anywhere, at any bound, either width
							lo, hi = randomBox(rng)
							bound = bounds[rng.Intn(len(bounds))]
							name = [2]string{"f64", "f32"}[rng.Intn(2)]
						}
						r, err := s.RetrieveRegion(name, lo, hi, bound)
						if err == nil {
							err = checkRecycledRegion(s, name, lo, hi, bound, r, bounds, want[name])
						}
						if err == nil && op%3 == 0 {
							err = checkPlanSpans(s, name, lo, hi, bound)
						}
						if err != nil {
							errs <- fmt.Errorf("worker %d op %d: %s %v..%v at %g: %w", seed, op, name, lo, hi, bound, err)
							return
						}
					}
				}(int64(w))
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
			if st := s.TileCache().Stats(); st.Evictions == 0 {
				t.Errorf("no tile was evicted: %+v", st)
			}
		})
	}
}

// checkPlanSpans plans the box at bound, as a planes response does, and
// reads every span of the plan through the tile cache: each must be the
// container's bytes.
func checkPlanSpans(s *Store, name string, lo, hi []int, bound float64) error {
	plan, err := s.PlanRegion(name, lo, hi, bound, 0)
	if err != nil {
		return err
	}
	for _, cp := range plan.Chunks {
		for _, sp := range cp.Spans {
			got, err := s.ReadSpan(name, cp.Index, sp, "")
			if err != nil {
				return err
			}
			want, err := s.ReadRange(cp.BlobOff+sp.Off, sp.Len)
			if err != nil {
				return err
			}
			if !bytes.Equal(got, want) {
				return fmt.Errorf("tile %d span [%d,+%d) is not the container's bytes", cp.Index, sp.Off, sp.Len)
			}
		}
	}
	return nil
}

// TestTileCacheRecycleSizeClass: through a two-tile cache and tiles of
// five lengths, a resident tile is charged what its result retains, and
// what its values actually occupy stays in the size class of that — a
// recycled backing is never more than twice the tile that holds it.
func TestTileCacheRecycleSizeClass(t *testing.T) {
	blob, bounds, want := recycleFixture(t)
	s := openStore(t, blob)
	s.SetCacheBytes(2 * int64(recycleChunk.Len()) * cachedBytesPerElem(core.Float64))
	rng := rand.New(rand.NewSource(3))
	for op := 0; op < 120; op++ {
		name := [2]string{"f64", "f32"}[rng.Intn(2)]
		lo, hi := randomBox(rng)
		bound := bounds[rng.Intn(len(bounds))]
		r, err := s.RetrieveRegion(name, lo, hi, bound)
		if err == nil {
			err = checkRecycledRegion(s, name, lo, hi, bound, r, bounds, want[name])
		}
		if err != nil {
			t.Fatalf("op %d: %s %v..%v at %g: %v", op, name, lo, hi, bound, err)
		}
		c := s.TileCache()
		c.mu.Lock()
		for el := c.ll.Front(); el != nil; el = el.Next() {
			e := el.Value.(*chunkEntry)
			e.mu.RLock()
			if e.res != nil {
				n, cp := e.res.NumElements(), 0
				if e.res.Scalar() == core.Float32 {
					cp = cap(core.DataOf[float32](e.res))
				} else {
					cp = cap(core.DataOf[float64](e.res))
				}
				if e.dec != e.res.RetainedBytes() || bits.Len(uint(cp)) != bits.Len(uint(n)) {
					t.Errorf("op %d: tile %v's decode is charged %d B, retains %d, holds %d values on a backing of %d", op, e.key, e.dec, e.res.RetainedBytes(), n, cp)
				}
			}
			e.mu.RUnlock()
		}
		c.mu.Unlock()
	}
	if st := s.TileCache().Stats(); st.Evictions == 0 {
		t.Errorf("no tile was evicted: %+v", st)
	}
}

// TestCacheOffRecycles holds a store whose tile cache is disabled to the
// recycling an evicting cache does: each retrieval releases its private
// entry's decode once it has copied out of it, so after warm-up a cold
// one-tile request allocates less than one decoded tile.
func TestCacheOffRecycles(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	g := testField(t, grid.Shape{32, 32, 64})
	eb := 1e-5 * g.ValueRange()
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := Add(w, "f32", grid.Narrow(g), WriteOptions{ErrorBound: eb, ChunkShape: recycleChunk}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	s := openStore(t, buf.Bytes())
	s.SetCacheBytes(0)
	var region *Region
	request := func() {
		var err error
		region, err = s.RetrieveRegionOpts("f32", []int{4, 4, 4}, []int{12, 12, 12}, 4*eb, RetrieveOptions{Reuse: region})
		if err != nil {
			t.Fatal(err)
		}
	}
	for range 3 {
		request()
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		request()
	}
	runtime.ReadMemStats(&after)
	perReq := (after.TotalAlloc - before.TotalAlloc) / runs
	tile := uint64(recycleChunk.Len()) * 4
	t.Logf("cold one-tile request at cache 0: %d B/op, a decoded tile's values %d B", perReq, tile)
	if perReq >= tile {
		t.Fatalf("a cold one-tile request at cache 0 allocates %d B, one decoded tile is %d B", perReq, tile)
	}
	if st := s.Stats(); st.TileDecodes != 3+runs {
		t.Fatalf("%d tile decodes, want %d: every request at cache 0 decodes", st.TileDecodes, 3+runs)
	}
}
