package server

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"strconv"
	"testing"

	"repro/internal/datagen"
	"repro/internal/grid"
	"repro/internal/store"
)

// benchEnv is the shared benchmark fixture: a 64³ Density container in
// 32³ tiles behind a Server.
type benchEnv struct {
	srv *Server
	st  *store.Store
	eb  float64
}

func newBenchEnv(b testing.TB) *benchEnv {
	b.Helper()
	g, err := datagen.GenerateShape("Density", grid.Shape{64, 64, 64})
	if err != nil {
		b.Fatal(err)
	}
	eb := 1e-6 * g.ValueRange()
	var buf bytes.Buffer
	w, err := store.NewWriter(&buf)
	if err != nil {
		b.Fatal(err)
	}
	if err := store.Add(w, "density", g, store.WriteOptions{ErrorBound: eb, ChunkShape: grid.Shape{32, 32, 32}}); err != nil {
		b.Fatal(err)
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	st, err := store.Open(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		b.Fatal(err)
	}
	srv := New()
	if err := srv.AddStore("test.ipcs", st); err != nil {
		b.Fatal(err)
	}
	return &benchEnv{srv: srv, st: st, eb: eb}
}

func (env *benchEnv) regionPath(extra string) string {
	bound := strconv.FormatFloat(64*env.eb, 'g', -1, 64)
	return "/v1/datasets/density/region?lo=8,8,8&hi=56,56,56&bound=" + bound + extra
}

func (env *benchEnv) resetCache() {
	env.st.SetCacheBytes(0) // drop every cached tile
	env.st.SetCacheBytes(store.DefaultCacheBytes)
}

// discardResponseWriter sinks a response without buffering it, so the
// direct benchmarks measure serve-path cost, not test-harness copies.
type discardResponseWriter struct {
	h      http.Header
	status int
}

func (w *discardResponseWriter) Header() http.Header         { return w.h }
func (w *discardResponseWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardResponseWriter) WriteHeader(code int)        { w.status = code }

func (w *discardResponseWriter) reset() {
	clear(w.h)
	w.status = 0
}

// BenchmarkServerRegion drives the handler directly — no TCP, no client —
// so ns/op and allocs/op price the serve path itself on a 64³ container
// (32³ tiles):
//
//	cold       raw retrieval with an empty tile cache — decode-dominated
//	warm       raw retrieval of cached tiles — the allocation-free path
//	planes     the progressive wire format — no decoding server-side
func BenchmarkServerRegion(b *testing.B) {
	env := newBenchEnv(b)
	handler := env.srv.Handler()
	serve := func(b *testing.B, w *discardResponseWriter, req *http.Request) {
		w.reset()
		handler.ServeHTTP(w, req)
		if w.status != 0 && w.status != 200 {
			b.Fatalf("status %d", w.status)
		}
	}
	b.Run("cold", func(b *testing.B) {
		req := httptest.NewRequest("GET", env.regionPath(""), nil)
		w := &discardResponseWriter{h: make(http.Header)}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			env.resetCache()
			serve(b, w, req)
		}
	})
	b.Run("warm", func(b *testing.B) {
		req := httptest.NewRequest("GET", env.regionPath(""), nil)
		w := &discardResponseWriter{h: make(http.Header)}
		env.resetCache()
		serve(b, w, req)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			serve(b, w, req)
		}
	})
	b.Run("planes", func(b *testing.B) {
		req := httptest.NewRequest("GET", env.regionPath("&format=planes"), nil)
		w := &discardResponseWriter{h: make(http.Header)}
		serve(b, w, req)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			serve(b, w, req)
		}
	})
}

// forBenchTile calls fn with the flat index of every element of tile ti
// of an edge³ field cut into tile³ tiles.
func forBenchTile(edge, tile, ti int, fn func(j int)) {
	per := edge / tile
	z0, y0, x0 := ti/(per*per)*tile, ti/per%per*tile, ti%per*tile
	for z := z0; z < z0+tile; z++ {
		for y := y0; y < y0+tile; y++ {
			for x := x0; x < x0+tile; x++ {
				fn((z*edge+y)*edge + x)
			}
		}
	}
}

// BenchmarkIngestSnapshot prices one snapshot POST, handler-direct, on a
// 64³ float32 Density series in 16³ tiles (64 tiles, 1 MiB a body) by how
// much of the field changed since the previous snapshot:
//
//	churn=0%    nothing changed: the fingerprint pass alone
//	churn=25%   a checkpoint stream: a quarter of the tiles compressed
//	churn=100%  everything changed: a full compress plus the fingerprint
//	            pass it could not use — what the memo costs when it loses
//
// MB/s is raw field bytes per second of POST.
func BenchmarkIngestSnapshot(b *testing.B) {
	g, err := datagen.GenerateShape("Density", grid.Shape{64, 64, 64})
	if err != nil {
		b.Fatal(err)
	}
	const edge, tile = 64, 16
	vals := grid.NarrowSlice(g.Data())
	body := leBytes(vals)
	step := float32(1e-3 * g.ValueRange())
	for _, pct := range []int{0, 25, 100} {
		b.Run(fmt.Sprintf("churn=%d%%", pct), func(b *testing.B) {
			e := newIngestEnv(b, nil)
			handler := e.srv.Handler()
			w := &discardResponseWriter{h: make(http.Header)}
			post := func(path string) {
				w.reset()
				handler.ServeHTTP(w, httptest.NewRequest("POST", path, bytes.NewReader(body)))
				if w.status != http.StatusCreated {
					b.Fatalf("POST %s: status %d", path, w.status)
				}
			}
			post(fmt.Sprintf("/v1/datasets/density?shape=64x64x64&chunk=16x16x16&dtype=f32&eb=%g", 1e-3*float64(step)))
			per := edge / tile
			ntiles := per * per * per
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				// The first pct% of the tiles, counted from a start that moves
				// every snapshot, step up and down in turn.
				off := step
				if i%2 == 1 {
					off = -step
				}
				for k := 0; k < ntiles*pct/100; k++ {
					forBenchTile(edge, tile, (i*7+k)%ntiles, func(j int) {
						vals[j] += off
						binary.LittleEndian.PutUint32(body[4*j:], math.Float32bits(vals[j]))
					})
				}
				b.StartTimer()
				post("/v1/datasets/density/snapshots")
			}
		})
	}
}

// BenchmarkSnapshotSeriesRead prices following one region through time,
// handler-direct: an op reads the same 48³ box (all 64 tiles, at 16·eb)
// of each of 8 snapshots of a 64³ float32 series in 16³ tiles, oldest
// first, starting from an empty tile cache. churn is the share of tiles
// that changed between neighbouring snapshots; the tiles that did not are
// the same blobs, decoded once for all the snapshots that reference them:
//
//	churn=0%    64 decodes for the 8 reads
//	churn=25%   64 + 7·16
//	churn=100%  8·64: nothing to share, what a cache per snapshot costs at any churn
func BenchmarkSnapshotSeriesRead(b *testing.B) {
	g, err := datagen.GenerateShape("Density", grid.Shape{64, 64, 64})
	if err != nil {
		b.Fatal(err)
	}
	const edge, tile, snaps = 64, 16, 8
	per := edge / tile
	ntiles := per * per * per
	step := float32(1e-3 * g.ValueRange())
	eb := 1e-3 * float64(step)
	for _, pct := range []int{0, 25, 100} {
		b.Run(fmt.Sprintf("churn=%d%%", pct), func(b *testing.B) {
			e := newIngestEnv(b, nil)
			handler := e.srv.Handler()
			w := &discardResponseWriter{h: make(http.Header)}
			vals := grid.NarrowSlice(g.Data())
			var reqs []*http.Request
			for t := 0; t < snaps; t++ {
				for k := 0; t > 0 && k < ntiles*pct/100; k++ {
					forBenchTile(edge, tile, (t*7+k)%ntiles, func(j int) { vals[j] += step })
				}
				body := leBytes(vals)
				path := "/v1/datasets/density/snapshots"
				if t == 0 {
					path = fmt.Sprintf("/v1/datasets/density?shape=64x64x64&chunk=16x16x16&dtype=f32&eb=%g", eb)
				}
				w.reset()
				handler.ServeHTTP(w, httptest.NewRequest("POST", path, bytes.NewReader(body)))
				if w.status != http.StatusCreated {
					b.Fatalf("POST %s: status %d", path, w.status)
				}
				reqs = append(reqs, httptest.NewRequest("GET",
					fmt.Sprintf("/v1/datasets/density@t%d/region?lo=8,8,8&hi=56,56,56&bound=%g", t, 16*eb), nil))
			}
			before := e.srv.statsDoc().TileDecodes
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				e.srv.TileCache().Resize(0) // drop every cached tile
				e.srv.TileCache().Resize(store.DefaultCacheBytes)
				b.StartTimer()
				for _, req := range reqs {
					w.reset()
					handler.ServeHTTP(w, req)
					if w.status != 0 && w.status != 200 {
						b.Fatalf("%s: status %d", req.URL, w.status)
					}
				}
			}
			b.ReportMetric(float64(e.srv.statsDoc().TileDecodes-before)/float64(b.N), "decodes/op")
		})
	}
}

// BenchmarkServerRegionHTTP measures the same requests through the full
// HTTP stack (TCP loopback, net/http client), pricing what a local
// client actually sees.
func BenchmarkServerRegionHTTP(b *testing.B) {
	env := newBenchEnv(b)
	ts := httptest.NewServer(env.srv.Handler())
	defer ts.Close()

	regionURL := ts.URL + env.regionPath("")
	get := func(c *http.Client, url string) error {
		resp, err := c.Get(url)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			return err
		}
		if resp.StatusCode != 200 {
			return fmt.Errorf("status %d", resp.StatusCode)
		}
		return nil
	}

	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			env.resetCache()
			if err := get(http.DefaultClient, regionURL); err != nil {
				b.Fatal(err)
			}
		}
	})
	warm := func(b *testing.B) {
		env.resetCache()
		if err := get(http.DefaultClient, regionURL); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
	}
	b.Run("warm", func(b *testing.B) {
		warm(b)
		for i := 0; i < b.N; i++ {
			if err := get(http.DefaultClient, regionURL); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("concurrent", func(b *testing.B) {
		warm(b)
		b.RunParallel(func(pb *testing.PB) {
			c := &http.Client{}
			for pb.Next() {
				if err := get(c, regionURL); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
	b.Run("planes", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := get(http.DefaultClient, regionURL+"&format=planes"); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestServerRegionWarmAllocs pins the warm raw serve path's allocations:
// a cached region through the full handler costs the 14 of
// BenchmarkServerRegion/warm (mux match, header values, and nothing
// region-sized — the body is the region's own memory).
func TestServerRegionWarmAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	env := newBenchEnv(t)
	handler := env.srv.Handler()
	req := httptest.NewRequest("GET", env.regionPath(""), nil)
	w := &discardResponseWriter{h: make(http.Header)}
	handler.ServeHTTP(w, req) // warm the tile cache and the scratch pool
	if w.status != 0 && w.status != 200 {
		t.Fatalf("status %d", w.status)
	}
	allocs := testing.AllocsPerRun(50, func() {
		w.reset()
		handler.ServeHTTP(w, req)
	})
	if allocs > 14 {
		t.Fatalf("warm region request allocates %.1f objects/op, budget is 14", allocs)
	}
	t.Logf("warm region request: %.1f allocs/op", allocs)
}

// TestServerRegionColdTileAllocs pins the cold path beside the warm one: a
// request that has to decode one 32³ tile — open its archive, read its
// spans, entropy-decode every plane of every level, merge, reconstruct,
// admit to the cache — allocates a number of objects that counts levels,
// not planes: 124 here, where the tile has some 70 planes. The planes of
// every level of a retrieval share one pooled backing (core's raise),
// handed back once merged, and the DEFLATE decoder allocates nothing; with
// compress/flate's stream reader and one make per plane the same request
// took 396, with a per-level table of retained planes 156, with a fresh
// backing per raise 150, and with a fresh value and index backing per
// level and a plane table per merge 146.
//
// It also pins the bytes: the tile the cache evicts to admit the next one
// hands its values and indices to that one's decode (core.Result.Release),
// so a steady stream of cold tiles allocates a small fraction of the
// 384 KiB a decoded tile holds. The collector stays off while it counts,
// since a collection empties the pools it draws on.
func TestServerRegionColdTileAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	env := newBenchEnv(t)
	handler := env.srv.Handler()
	bound := strconv.FormatFloat(4*env.eb, 'g', -1, 64)
	req := httptest.NewRequest("GET", "/v1/datasets/density/region?lo=0,0,0&hi=32,32,32&bound="+bound, nil)
	w := &discardResponseWriter{h: make(http.Header)}
	cold := func() {
		env.resetCache()
		w.reset()
		handler.ServeHTTP(w, req)
	}
	cold() // fill the scratch pools
	if w.status != 0 && w.status != 200 {
		t.Fatalf("status %d", w.status)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := testing.AllocsPerRun(20, cold)
	if allocs > 128 {
		t.Fatalf("cold one-tile region request allocates %.1f objects/op, budget is 128", allocs)
	}
	const runs, budget = 50, 64 << 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		cold()
	}
	runtime.ReadMemStats(&after)
	perReq := (after.TotalAlloc - before.TotalAlloc) / runs
	if perReq > budget {
		t.Fatalf("cold one-tile region request allocates %d B/op, budget is %d", perReq, budget)
	}
	t.Logf("cold one-tile region request: %.1f allocs/op, %d B/op", allocs, perReq)
}
