package backend_test

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/grid"
	"repro/internal/store"
)

// TestHTTPBackendCoalescing pins the one coalescing point: N concurrent
// identical span reads by an edge store opened on Cached(HTTP) reach the
// origin as exactly one Range request, at both tile-cache budgets. At
// budget 0 the tile cache keeps nothing and every read goes through a
// private entry; at 64 MiB the readers share one entry, which misses for
// all of them while the fetch is in flight (an entry does not hold its
// lock across a fetch). Either way the reads meet only in Cached's
// flights, and HTTP itself does not coalesce, so this fails if a read
// bypasses them. Once the fetch lands, a further read of the span costs
// the origin nothing at 64 MiB, where the entry kept the bytes, and one
// more Range request at budget 0.
func TestHTTPBackendCoalescing(t *testing.T) {
	g, err := datagen.GenerateShape("Density", grid.Shape{32, 32, 32})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w, err := store.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	opts := store.WriteOptions{ErrorBound: 1e-6 * g.ValueRange(), ChunkShape: grid.Shape{16, 16, 16}}
	if err := store.Add(w, "density", g, opts); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()
	local, err := store.Open(bytes.NewReader(blob), int64(len(blob)))
	if err != nil {
		t.Fatal(err)
	}
	sp := core.Span{Off: 256, Len: 128}
	want, err := local.ReadSpan("density", 0, sp, "")
	if err != nil {
		t.Fatal(err)
	}

	for _, budget := range []int64{64 << 20, 0} {
		t.Run(fmt.Sprintf("budget=%d", budget), func(t *testing.T) {
			var hold atomic.Bool // set once the edge has opened the container
			var ranged atomic.Int32
			release := make(chan struct{})
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if hold.Load() && r.Header.Get("Range") != "bytes=0-0" { // the size probe is not held
					ranged.Add(1)
					<-release
				}
				http.ServeContent(w, r, "", time.Time{}, bytes.NewReader(blob))
			}))
			defer ts.Close()
			h, err := backend.NewHTTP(ts.URL + "/c.ipcs")
			if err != nil {
				t.Fatal(err)
			}
			c := backend.NewCached(h)
			defer c.Close()
			edge, err := store.OpenBackend(c, "c.ipcs")
			if err != nil {
				t.Fatal(err)
			}
			if err := edge.SetCacheBytes(budget); err != nil {
				t.Fatal(err)
			}
			before := c.Counters()
			hold.Store(true)

			const readers = 8
			var wg sync.WaitGroup
			errs := make([]error, readers)
			bufs := make([][]byte, readers)
			for i := 0; i < readers; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					bufs[i], errs[i] = edge.ReadSpan("density", 0, sp, "")
				}(i)
			}
			// Let the readers pile onto the single in-flight request, or
			// (were they not joined) each reach the origin, then serve.
			deadline := time.Now().Add(5 * time.Second)
			for c.Counters().Coalesced-before.Coalesced < readers-1 && ranged.Load() < readers && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			close(release)
			wg.Wait()
			for i, err := range errs {
				if err != nil {
					t.Fatalf("reader %d: %v", i, err)
				}
				if !bytes.Equal(bufs[i], want) {
					t.Fatalf("reader %d got wrong bytes", i)
				}
			}
			if got := ranged.Load(); got != 1 {
				t.Errorf("%d origin Range requests, want 1", got)
			}
			got := c.Counters()
			if coalesced, fetched := got.Coalesced-before.Coalesced, got.BytesFetched-before.BytesFetched; coalesced != readers-1 || fetched != sp.Len {
				t.Errorf("Coalesced = %d, BytesFetched = %d, want %d, %d", coalesced, fetched, readers-1, sp.Len)
			}

			again, err := edge.ReadSpan("density", 0, sp, "")
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again, want) {
				t.Fatal("the read after the flight got wrong bytes")
			}
			wantRanged := int32(1)
			if budget == 0 {
				wantRanged = 2
			}
			if got := ranged.Load(); got != wantRanged {
				t.Errorf("after a further read: %d origin Range requests, want %d", got, wantRanged)
			}
		})
	}
}
