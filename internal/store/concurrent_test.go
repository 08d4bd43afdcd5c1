package store

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/grid"
)

// TestConcurrentRetrieveSingleDecode hammers one store with overlapping
// region queries from many goroutines and asserts that every shared tile
// was decoded exactly once: concurrent requests for a cold tile must queue
// on its entry lock and reuse the first decode, not duplicate it. Run
// under -race this is also the store's concurrency-safety proof.
func TestConcurrentRetrieveSingleDecode(t *testing.T) {
	g := testField(t, grid.Shape{32, 32, 32})
	eb := 1e-4 * g.ValueRange()
	blob := packOne(t, g, eb, grid.Shape{16, 16, 16}) // 8 tiles
	s := openStore(t, blob)

	// Overlapping boxes: every goroutine touches the central tiles, so the
	// 8 tiles are requested up to goroutines× times each.
	regions := [][2][]int{
		{{0, 0, 0}, {32, 32, 32}},
		{{8, 8, 8}, {24, 24, 24}},
		{{0, 0, 0}, {17, 32, 17}},
		{{15, 15, 15}, {32, 32, 32}},
	}
	const workers = 16
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		reg := regions[w%len(regions)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, err := s.RetrieveRegion("field", reg[0], reg[1], eb)
			if err != nil {
				errs <- err
				return
			}
			// Verify the copy-out was not corrupted by concurrent copies.
			i := 0
			for x := reg[0][0]; x < reg[1][0]; x++ {
				for y := reg[0][1]; y < reg[1][1]; y++ {
					for z := reg[0][2]; z < reg[1][2]; z++ {
						if d := r.Data()[i] - g.At(x, y, z); d > eb || d < -eb {
							errs <- fmt.Errorf("value at (%d,%d,%d) off by %g (bound %g)", x, y, z, d, eb)
							return
						}
						i++
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.TileDecodes != 8 {
		t.Errorf("decoded %d tiles for 8 distinct tiles — concurrent requests must share decodes", st.TileDecodes)
	}
	if st.TileRefines != 0 {
		t.Errorf("%d refines at a single bound", st.TileRefines)
	}
	if want := int64(workers)*8 - 8; st.TileHits < want/2 {
		t.Errorf("only %d cache hits across %d overlapping tile requests", st.TileHits, workers*8)
	}
}

// TestConcurrentRefine mixes bounds across goroutines: tiles must still
// decode once, tighten monotonically via in-place refinement, and every
// caller must read values honoring its own bound even while another
// goroutine refines the shared tile.
func TestConcurrentRefine(t *testing.T) {
	g := testField(t, grid.Shape{32, 32, 32})
	eb := 1e-5 * g.ValueRange()
	blob := packOne(t, g, eb, grid.Shape{16, 16, 16})
	s := openStore(t, blob)

	bounds := []float64{1024 * eb, 128 * eb, 16 * eb, eb}
	const rounds = 3
	var wg sync.WaitGroup
	errs := make(chan error, len(bounds)*rounds)
	for r := 0; r < rounds; r++ {
		for _, bound := range bounds {
			bound := bound
			wg.Add(1)
			go func() {
				defer wg.Done()
				reg, err := s.RetrieveRegion("field", []int{0, 0, 0}, []int{32, 32, 32}, bound)
				if err != nil {
					errs <- err
					return
				}
				if reg.GuaranteedError() > bound {
					errs <- fmt.Errorf("guaranteed error %g exceeds requested bound %g", reg.GuaranteedError(), bound)
					return
				}
				data := reg.Data()
				for i, want := range g.Data() {
					if d := data[i] - want; d > bound || d < -bound {
						errs <- fmt.Errorf("value %d off by %g (bound %g)", i, d, bound)
						return
					}
				}
			}()
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if st := s.Stats(); st.TileDecodes != 8 {
		t.Errorf("decoded %d tiles for 8 distinct tiles under mixed-bound load", st.TileDecodes)
	}
}

// BenchmarkRetrieveWarmParallel prices the tile cache's lock at its worst:
// every goroutine re-reads a 16³ box that straddles all 8 warm tiles of a
// 32³ field, so each operation is eight cache lookups and eight small
// copies and nothing else. Run it at -cpu 2,8 to see contention.
func BenchmarkRetrieveWarmParallel(b *testing.B) {
	g := testField(b, grid.Shape{32, 32, 32})
	eb := 1e-4 * g.ValueRange()
	s := openStore(b, packOne(b, g, eb, grid.Shape{16, 16, 16}))
	lo, hi := []int{8, 8, 8}, []int{24, 24, 24}
	if _, err := s.RetrieveRegion("field", lo, hi, eb); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		var opts RetrieveOptions
		for pb.Next() {
			reg, err := s.RetrieveRegionOpts("field", lo, hi, eb, opts)
			if err != nil {
				b.Error(err)
				return
			}
			opts.Reuse = reg
		}
	})
	if st := s.Stats(); st.TileDecodes != 8 {
		b.Fatalf("%d decodes: the box was not warm", st.TileDecodes)
	}
}
