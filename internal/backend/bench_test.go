package backend_test

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/datagen"
	"repro/internal/grid"
	"repro/internal/server"
	"repro/internal/store"
)

// benchBlob is the shared 4 MiB pseudo-random container stand-in; reads
// are 64 KiB ranges walked with a stride that defeats trivial locality.
const (
	benchBlobSize = 4 << 20
	benchReadSize = 64 << 10
)

var benchBlobOnce = sync.OnceValue(func() []byte {
	b := make([]byte, benchBlobSize)
	x := uint32(0x9E3779B9)
	for i := range b {
		x = x*1664525 + 1013904223
		b[i] = byte(x >> 24)
	}
	return b
})

// readRanges drives b.N ranged reads through any backend, the common
// body of the file/http benchmarks.
func readRanges(b *testing.B, be backend.Backend, name string) {
	b.Helper()
	buf := make([]byte, benchReadSize)
	b.SetBytes(benchReadSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := int64(i*benchReadSize*7) % (benchBlobSize - benchReadSize)
		if _, err := be.ReadAt(name, buf, off); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBackendFile(b *testing.B) {
	dir := b.TempDir()
	path := filepath.Join(dir, "c")
	if err := os.WriteFile(path, benchBlobOnce(), 0o644); err != nil {
		b.Fatal(err)
	}
	f, err := backend.NewFile(path)
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	readRanges(b, f, "c")
}

// blobServer serves the bench blob with Range support, like a static
// file server or an ipcompd container endpoint.
func blobServer(b *testing.B) *httptest.Server {
	b.Helper()
	blob := benchBlobOnce()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.ServeContent(w, r, "", time.Time{}, bytes.NewReader(blob))
	}))
	b.Cleanup(ts.Close)
	return ts
}

// BenchmarkBackendHTTPCold measures the bare http backend: every read is
// an origin round trip (no cache tier).
func BenchmarkBackendHTTPCold(b *testing.B) {
	ts := blobServer(b)
	h, err := backend.NewHTTP(ts.URL + "/c")
	if err != nil {
		b.Fatal(err)
	}
	readRanges(b, h, "c")
}

// BenchmarkBackendHTTPWarm measures Cached(http) once the spans are
// resident: reads are served from the span cache with zero origin I/O.
func BenchmarkBackendHTTPWarm(b *testing.B) {
	ts := blobServer(b)
	h, err := backend.NewHTTP(ts.URL + "/c")
	if err != nil {
		b.Fatal(err)
	}
	c := backend.NewCached(h, 8<<20)
	// Warm every range the loop will touch.
	buf := make([]byte, benchReadSize)
	for off := int64(0); off+benchReadSize <= benchBlobSize; off += benchReadSize {
		if _, err := c.ReadAt("c", buf, off); err != nil {
			b.Fatal(err)
		}
	}
	readRanges(b, c, "c")
}

// BenchmarkBackendCachedProxy measures the edge-proxy serving path end to
// end: an edge ipcompd whose store reads the origin ipcompd through the
// http+cached backend answers warm progressive (format=planes) region
// requests — plan from cached headers, spans from cached bytes, zero
// decode, zero origin reads.
func BenchmarkBackendCachedProxy(b *testing.B) {
	g, err := datagen.GenerateShape("Density", grid.Shape{32, 32, 32})
	if err != nil {
		b.Fatal(err)
	}
	eb := 1e-6 * g.ValueRange()
	var buf bytes.Buffer
	w, err := store.NewWriter(&buf)
	if err != nil {
		b.Fatal(err)
	}
	if err := store.Add(w, "density", g, store.WriteOptions{ErrorBound: eb, ChunkShape: grid.Shape{16, 16, 16}}); err != nil {
		b.Fatal(err)
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	originStore, err := store.Open(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		b.Fatal(err)
	}
	originSrv := server.New()
	if err := originSrv.AddStore("c.ipcs", originStore); err != nil {
		b.Fatal(err)
	}
	origin := httptest.NewServer(originSrv.Handler())
	defer origin.Close()

	hb, err := backend.NewHTTP(origin.URL)
	if err != nil {
		b.Fatal(err)
	}
	cb := backend.NewCached(hb, 8<<20)
	edgeStore, err := store.OpenBackend(cb, "c.ipcs")
	if err != nil {
		b.Fatal(err)
	}
	edgeSrv := server.New()
	if err := edgeSrv.AddStore("c.ipcs", edgeStore); err != nil {
		b.Fatal(err)
	}
	edge := httptest.NewServer(edgeSrv.Handler())
	defer edge.Close()

	url := fmt.Sprintf("%s/v1/datasets/density/region?lo=4,4,4&hi=28,28,28&bound=%g&format=planes", edge.URL, 64*eb)
	fetch := func() int64 {
		resp, err := edge.Client().Get(url)
		if err != nil {
			b.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("HTTP %d", resp.StatusCode)
		}
		n, err := io.Copy(io.Discard, resp.Body)
		if err != nil {
			b.Fatal(err)
		}
		return n
	}
	n := fetch() // warm the span cache
	before := edgeStore.Stats().Backend.BytesFetched
	b.SetBytes(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fetch()
	}
	b.StopTimer()
	if after := edgeStore.Stats().Backend.BytesFetched; after != before {
		b.Fatalf("warm proxy read %d origin bytes", after-before)
	}
}
