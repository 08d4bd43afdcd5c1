package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"repro/internal/backend"
	"repro/internal/datagen"
	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/ipcomp/client"
)

// edgeEnv stacks a second ipcompd on top of the origin test server,
// reading the origin's containers through the http+cached backend — the
// edge-proxy deployment of docs/BACKENDS.md.
type edgeEnv struct {
	*testEnv
	edge      *httptest.Server
	edgeStore *store.Store
	cached    *backend.Cached
}

func newEdgeEnv(t testing.TB) *edgeEnv {
	t.Helper()
	env := newTestEnv(t)
	hb, err := backend.NewHTTP(env.ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	cb := backend.NewCached(hb)
	st, err := store.OpenBackend(cb, "test.ipcs")
	if err != nil {
		t.Fatal(err)
	}
	srv := New()
	if err := srv.AddStore("test.ipcs", st); err != nil {
		t.Fatal(err)
	}
	edge := httptest.NewServer(srv.Handler())
	t.Cleanup(edge.Close)
	return &edgeEnv{testEnv: env, edge: edge, edgeStore: st, cached: cb}
}

func bitEqual64(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestEdgeProxy is the backend subsystem's acceptance test: a client
// talking to an edge ipcompd that proxies the origin through the
// http+cached backend gets bit-identical results to a client talking to
// the origin directly — for the initial fetch and for token refinement —
// and once the edge is warm, a repeat request is served with zero origin
// reads from the compressed bytes its tile cache keeps, asserted via the
// backend and tile-cache counters. The edge only ever ships planes, so it
// never decodes a tile.
func TestEdgeProxy(t *testing.T) {
	env := newEdgeEnv(t)
	ctx := context.Background()
	oc := client.New(env.ts.URL)
	ec := client.New(env.edge.URL)
	lo, hi := []int{4, 4, 4}, []int{28, 28, 28}
	coarse := 256 * env.eb

	// Initial fetch at a loose bound: edge and origin must agree bit for
	// bit, and both must match a local in-process retrieval.
	regO, err := oc.Region(ctx, "density", lo, hi, coarse)
	if err != nil {
		t.Fatal(err)
	}
	regE, err := ec.Region(ctx, "density", lo, hi, coarse)
	if err != nil {
		t.Fatal(err)
	}
	if !bitEqual64(regO.Data(), regE.Data()) {
		t.Fatal("edge coarse fetch differs from origin fetch")
	}
	local, err := env.st.RetrieveRegion("density", lo, hi, coarse)
	if err != nil {
		t.Fatal(err)
	}
	if !bitEqual64(local.Data(), regE.Data()) {
		t.Fatal("edge coarse fetch differs from direct local retrieval")
	}

	// Token refinement to full fidelity ships only delta planes — through
	// the proxy they must still land bit-identically.
	if err := regO.Refine(ctx, env.eb); err != nil {
		t.Fatal(err)
	}
	if err := regE.Refine(ctx, env.eb); err != nil {
		t.Fatal(err)
	}
	if !bitEqual64(regO.Data(), regE.Data()) {
		t.Fatal("edge refinement differs from origin refinement")
	}
	localFull, err := env.st.RetrieveRegion("density", lo, hi, env.eb)
	if err != nil {
		t.Fatal(err)
	}
	if !bitEqual64(localFull.Data(), regE.Data()) {
		t.Fatal("edge refinement differs from direct local retrieval")
	}

	// Warm proxy: a fresh client repeating the coarse request must be
	// served entirely from the edge's tile cache — zero origin reads.
	before := env.edgeStore.Stats()
	if before.Backend.BytesFetched == 0 {
		t.Fatal("counters report no origin traffic despite the cold fetches above")
	}
	regW, err := client.New(env.edge.URL).Region(ctx, "density", lo, hi, coarse)
	if err != nil {
		t.Fatal(err)
	}
	if !bitEqual64(local.Data(), regW.Data()) {
		t.Fatal("warm edge fetch differs from direct local retrieval")
	}
	after := env.edgeStore.Stats()
	if after.Backend.BytesFetched != before.Backend.BytesFetched {
		t.Fatalf("warm request read %d origin bytes, want 0", after.Backend.BytesFetched-before.Backend.BytesFetched)
	}
	if after.ReadHits <= before.ReadHits || after.ReadMisses != before.ReadMisses {
		t.Errorf("warm request: tile-cache reads %d hits, %d misses, want hits and no miss",
			after.ReadHits-before.ReadHits, after.ReadMisses-before.ReadMisses)
	}
	if after.TileDecodes != 0 {
		t.Errorf("a planes-only edge decoded %d tiles", after.TileDecodes)
	}
}

// TestEdgeDecodeAfterDemotion: an edge whose tile budget fits one decoded
// tile, beside the compressed bytes of another, reads tile A at full
// fidelity, then tile B, then A again. B's decode demotes A to the
// compressed bytes it read, so the third read decodes A again — from
// those bytes, with zero origin reads.
func TestEdgeDecodeAfterDemotion(t *testing.T) {
	env := newEdgeEnv(t)
	st := env.edgeStore
	var archives int64 // the eight tiles' archives
	for _, ds := range st.Datasets() {
		if ds.Name == "density" {
			archives = ds.CompressedBytes
		}
	}
	// A decode is charged 12 B/elem until it settles, a decoded float64
	// tile at full fidelity its 8 B/elem of values and its archive: room
	// for one pending decode and about two archives.
	const elems = 16 * 16 * 16
	if err := st.SetCacheBytes(12*elems + archives/4); err != nil {
		t.Fatal(err)
	}
	a, b := []int{0, 0, 0}, []int{16, 0, 0}
	read := func(lo []int) {
		t.Helper()
		hi := []int{lo[0] + 16, lo[1] + 16, lo[2] + 16}
		got, err := st.RetrieveRegion("density", lo, hi, env.eb)
		if err != nil {
			t.Fatal(err)
		}
		want, err := env.st.RetrieveRegion("density", lo, hi, env.eb)
		if err != nil {
			t.Fatal(err)
		}
		if !bitEqual64(got.Data(), want.Data()) {
			t.Fatalf("edge tile at %v differs from the origin's", lo)
		}
	}
	read(a)
	read(b)
	before := st.Stats()
	read(a)
	after := st.Stats()
	if d := after.TileDecodes - before.TileDecodes; d != 1 {
		t.Fatalf("re-reading the demoted tile decoded %d tiles, want 1", d)
	}
	if n := after.Backend.BytesFetched - before.Backend.BytesFetched; n != 0 {
		t.Errorf("re-decoding the demoted tile read %d origin bytes, want 0", n)
	}
	if cs := st.TileCache().Stats(); cs.Entries != 2 || cs.Evictions != 0 {
		t.Errorf("tile cache %+v, want both tiles resident and none dropped", cs)
	}
}

// TestEdgeProxyPlanesTrace: a planes request to a tracing edge that
// reads its container through backend.NewCached(backend.NewHTTP(origin))
// carries the client's trace id onto the origin Range reads of the spans
// it streams — Store.ReadSpan → the tile's cache entry → Cached → HTTP's
// X-Ipcomp-Trace header — so the origin's half of the work stitches into
// the client's trace. Planning reads each tile's header first, and without the id
// (PlanRegion takes none); every origin read from the first traced one on
// is a span read and must carry it.
func TestEdgeProxyPlanesTrace(t *testing.T) {
	env := newTestEnv(t)
	originSrv := New()
	if err := originSrv.AddStore("test.ipcs", env.st); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var traces []string // the trace header of each origin Range read
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get("Range") != "" {
			mu.Lock()
			traces = append(traces, r.Header.Get(obs.TraceHeader))
			mu.Unlock()
		}
		originSrv.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(origin.Close)

	hb, err := backend.NewHTTP(origin.URL)
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.OpenBackend(backend.NewCached(hb), "test.ipcs")
	if err != nil {
		t.Fatal(err)
	}
	edgeSrv := New()
	edgeSrv.EnableTracing(obs.Options{Sample: 1})
	if err := edgeSrv.AddStore("test.ipcs", st); err != nil {
		t.Fatal(err)
	}
	edge := httptest.NewServer(edgeSrv.Handler())
	t.Cleanup(edge.Close)
	mu.Lock()
	traces = nil // the reads that opened the container
	mu.Unlock()

	const id = "client-trace-7"
	req, err := http.NewRequest(http.MethodGet, edge.URL+
		"/v1/datasets/density/region?lo=4,4,4&hi=28,28,28&format=planes&bound="+formatFloat(256*env.eb), nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(obs.TraceHeader, id)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("planes request: status %d, %d body bytes, %v", resp.StatusCode, len(body), err)
	}

	mu.Lock()
	defer mu.Unlock()
	first := slices.Index(traces, id)
	if first < 0 {
		t.Fatalf("none of the %d origin Range reads carried trace %q (got %q)", len(traces), id, traces)
	}
	for i, got := range traces[first:] {
		if got != id {
			t.Errorf("origin Range read %d of %d, after the first span read, carried trace %q, want %q",
				first+i+1, len(traces), got, id)
		}
	}
}

// TestEdgeProxyStatsEndpoint checks that the edge's /v1/stats surfaces
// the backend counters and the tile cache's read counters alongside the
// tile counters.
func TestEdgeProxyStatsEndpoint(t *testing.T) {
	env := newEdgeEnv(t)
	ctx := context.Background()
	ec := client.New(env.edge.URL)
	if _, err := ec.Region(ctx, "density", []int{0, 0, 0}, []int{16, 16, 16}, 64*env.eb); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(env.edge.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc StatsDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.Containers != 1 {
		t.Errorf("containers = %d, want 1", doc.Containers)
	}
	if doc.BackendBytesFetched == 0 || doc.BackendMisses == 0 {
		t.Errorf("backend counters not surfaced: %+v", doc)
	}
}

// TestStatsSharedBackendNotDoubleCounted pins that two stores opened on
// one shared backend (an edge serving every container of one origin)
// contribute the backend's counters to /v1/stats once, not once per
// container, and each tile cache's read counters once.
func TestStatsSharedBackendNotDoubleCounted(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"one.ipcs", "two.ipcs"} {
		var buf bytes.Buffer
		w, err := store.NewWriter(&buf)
		if err != nil {
			t.Fatal(err)
		}
		g, err := datagen.GenerateShape("Density", grid.Shape{8, 8, 8})
		if err != nil {
			t.Fatal(err)
		}
		if err := store.Add(w, "d-"+name, g, store.WriteOptions{ErrorBound: 1e-4 * g.ValueRange()}); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	d, err := backend.NewDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	cb := backend.NewCached(d)
	srv := New()
	var stores []*store.Store
	for _, name := range []string{"one.ipcs", "two.ipcs"} {
		st, err := store.OpenBackend(cb, name)
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.AddStore(name, st); err != nil {
			t.Fatal(err)
		}
		stores = append(stores, st)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc StatsDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	truth := cb.Counters()
	var misses int64
	for _, st := range stores {
		misses += st.TileCache().Stats().ReadMisses
	}
	if doc.BackendBytesFetched != truth.BytesFetched || doc.BackendMisses != misses {
		t.Errorf("stats bytes=%d misses=%d, backend truth bytes=%d, tile caches' misses %d (shared backend double-counted?)",
			doc.BackendBytesFetched, doc.BackendMisses, truth.BytesFetched, misses)
	}
	if doc.BackendBytesFetched == 0 {
		t.Error("no backend traffic recorded at all")
	}
}

// TestContainersEndpoint checks the raw-bytes re-export: listing and
// ranged reads, which is exactly what the http backend consumes.
func TestContainersEndpoint(t *testing.T) {
	env := newTestEnv(t)
	resp, err := http.Get(env.ts.URL + "/v1/containers")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc struct {
		Containers []ContainerDoc `json:"containers"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Containers) != 1 || doc.Containers[0].Name != "test.ipcs" {
		t.Fatalf("containers = %+v", doc.Containers)
	}
	if doc.Containers[0].Size != env.st.Size() {
		t.Errorf("size = %d, want %d", doc.Containers[0].Size, env.st.Size())
	}

	req, err := http.NewRequest(http.MethodGet, env.ts.URL+"/v1/containers/test.ipcs", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Range", "bytes=0-7")
	rr, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer rr.Body.Close()
	if rr.StatusCode != http.StatusPartialContent {
		t.Fatalf("ranged read: HTTP %d, want 206", rr.StatusCode)
	}

	missing, err := http.Get(env.ts.URL + "/v1/containers/nope.ipcs")
	if err != nil {
		t.Fatal(err)
	}
	missing.Body.Close()
	if missing.StatusCode != http.StatusNotFound {
		t.Errorf("missing container: HTTP %d, want 404", missing.StatusCode)
	}
}
