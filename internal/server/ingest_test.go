package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"repro/internal/cas"
	"repro/internal/datagen"
	"repro/internal/grid"
	"repro/internal/interp"
	"repro/internal/store"
)

// ingestEnv is a writable server over a fresh CAS.
type ingestEnv struct {
	srv *Server
	ts  *httptest.Server
	c   *cas.Store
	g   *grid.Grid[float64]
	eb  float64
	dir string
}

func newIngestEnv(t testing.TB, adm *AdmissionOptions) *ingestEnv {
	t.Helper()
	g, err := datagen.GenerateShape("Density", grid.Shape{32, 32, 32})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	c, err := cas.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv := New()
	if adm != nil {
		srv.SetAdmission(*adm)
	}
	if err := srv.EnableIngest(IngestOptions{CAS: c}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.CloseIngest() })
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return &ingestEnv{srv: srv, ts: ts, c: c, g: g, eb: 1e-6 * g.ValueRange(), dir: dir}
}

// bodyF64 renders a grid as the little-endian POST body.
func bodyF64(g *grid.Grid[float64]) []byte {
	out := make([]byte, 8*g.Len())
	for i, v := range g.Data() {
		binary.LittleEndian.PutUint64(out[i*8:], math.Float64bits(v))
	}
	return out
}

// post sends a write request and decodes the JSON response.
func (e *ingestEnv) post(t *testing.T, path string, body []byte) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(e.ts.URL+path, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("%s: decoding response: %v", path, err)
	}
	return resp.StatusCode, doc
}

func (e *ingestEnv) createQuery() string {
	return fmt.Sprintf("?shape=32x32x32&chunk=16x16x16&eb=%g", e.eb)
}

func TestIngestCreateAndServe(t *testing.T) {
	e := newIngestEnv(t, nil)
	code, doc := e.post(t, "/v1/datasets/density"+e.createQuery(), bodyF64(e.g))
	if code != http.StatusCreated {
		t.Fatalf("create: status %d, %v", code, doc)
	}
	if doc["dataset"] != "density@t0" || doc["t"] != float64(0) {
		t.Fatalf("create doc %v", doc)
	}
	if doc["new_blobs"] != float64(8) || doc["dedup_blobs"] != float64(0) {
		t.Fatalf("create stats %v, want 8 new blobs", doc)
	}

	// Served immediately under the snapshot name AND the bare-field alias.
	for _, name := range []string{"density@t0", "density"} {
		resp, err := http.Get(e.ts.URL + "/v1/datasets/" + name)
		if err != nil {
			t.Fatal(err)
		}
		var dd DatasetDoc
		err = json.NewDecoder(resp.Body).Decode(&dd)
		resp.Body.Close()
		if err != nil || resp.StatusCode != 200 || dd.Name != "density@t0" {
			t.Fatalf("GET %s: status %d doc %+v err %v", name, resp.StatusCode, dd, err)
		}
	}

	// A full-fidelity region read honors the ingest error bound.
	resp, err := http.Get(e.ts.URL + "/v1/datasets/density/region?lo=0,0,0&hi=32,32,32")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("region: status %d err %v", resp.StatusCode, err)
	}
	if len(raw) != 8*e.g.Len() {
		t.Fatalf("region returned %d bytes, want %d", len(raw), 8*e.g.Len())
	}
	for i, want := range e.g.Data() {
		got := math.Float64frombits(binary.LittleEndian.Uint64(raw[i*8:]))
		if math.Abs(got-want) > e.eb {
			t.Fatalf("value %d: |%v - %v| above the bound %g", i, got, want, e.eb)
		}
	}
}

// TestIngestDefaultsMatchSnapshotPut pins what a POST that names no interp
// stores: blobs byte-identical to an offline store.PackSnapshot with the
// defaults of `ipcomp snapshot put` (cubic interpolation), so a series can
// be written through either path and dedupe across both.
func TestIngestDefaultsMatchSnapshotPut(t *testing.T) {
	e := newIngestEnv(t, nil)
	if code, doc := e.post(t, "/v1/datasets/density"+e.createQuery(), bodyF64(e.g)); code != http.StatusCreated {
		t.Fatalf("create: %d %v", code, doc)
	}
	got, ok := e.c.Manifest("density", 0)
	if !ok {
		t.Fatal("ingested snapshot has no manifest")
	}
	offline, err := cas.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := store.PackSnapshot(offline, "density", e.g, store.WriteOptions{
		ErrorBound:    e.eb,
		ChunkShape:    grid.Shape{16, 16, 16},
		Interpolation: interp.Cubic,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.ErrorBound != want.ErrorBound || len(got.Tiles) != len(want.Tiles) {
		t.Fatalf("ingested eb %g, %d tiles; offline eb %g, %d tiles", got.ErrorBound, len(got.Tiles), want.ErrorBound, len(want.Tiles))
	}
	for i := range want.Tiles {
		a, err := e.c.ReadBlob(got.Tiles[i].Score)
		if err != nil {
			t.Fatal(err)
		}
		b, err := offline.ReadBlob(want.Tiles[i].Score)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("tile %d: ingested blob (%d B) differs from the offline one (%d B)", i, len(a), len(b))
		}
	}
}

func TestIngestAppendDedupAndAlias(t *testing.T) {
	e := newIngestEnv(t, nil)
	if code, doc := e.post(t, "/v1/datasets/density"+e.createQuery(), bodyF64(e.g)); code != 201 {
		t.Fatalf("create: %d %v", code, doc)
	}
	// An identical second snapshot: geometry inherited, zero new blobs.
	code, doc := e.post(t, "/v1/datasets/density/snapshots", bodyF64(e.g))
	if code != 201 || doc["dataset"] != "density@t1" {
		t.Fatalf("append: %d %v", code, doc)
	}
	if doc["new_blobs"] != float64(0) || doc["dedup_blobs"] != float64(8) {
		t.Fatalf("append of identical data: %v, want full dedup", doc)
	}
	// The alias now points at t1.
	resp, err := http.Get(e.ts.URL + "/v1/datasets/density")
	if err != nil {
		t.Fatal(err)
	}
	var dd DatasetDoc
	err = json.NewDecoder(resp.Body).Decode(&dd)
	resp.Body.Close()
	if err != nil || dd.Name != "density@t1" {
		t.Fatalf("alias resolves to %q, want density@t1 (%v)", dd.Name, err)
	}
	// And the stats section reports the write path.
	var stats StatsDoc
	resp, err = http.Get(e.ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close()
	if err != nil || stats.Ingest == nil || stats.Ingest.Puts != 2 || stats.Ingest.EpochSnapshots != 2 {
		t.Fatalf("stats ingest %+v err %v", stats.Ingest, err)
	}
}

// TestIngestValidation pins the write path's input checking: every bad
// request draws a 4xx with a message that names the problem — mirroring
// the CLI's readRaw contract that a payload which is not a whole number
// of elements is rejected, never truncated.
func TestIngestValidation(t *testing.T) {
	e := newIngestEnv(t, nil)
	body := bodyF64(e.g)
	q := e.createQuery()
	if code, doc := e.post(t, "/v1/datasets/density"+q, body); code != 201 {
		t.Fatalf("setup create: %d %v", code, doc)
	}
	cases := []struct {
		name string
		path string
		body []byte
		code int
		want string
	}{
		{"bad field", "/v1/datasets/bad%2Fname" + q, body, 400, "invalid field name"},
		{"reserved @", "/v1/datasets/a@t0" + q, body, 400, "invalid field name"},
		{"missing shape", "/v1/datasets/fresh?eb=1e-6", body, 400, "shape is required"},
		{"missing eb", "/v1/datasets/fresh?shape=32x32x32", body, 400, "eb is required"},
		{"bad eb", "/v1/datasets/fresh?shape=32x32x32&eb=-2", body, 400, "eb must be"},
		{"bad shape", "/v1/datasets/fresh?shape=32xx32&eb=1e-6", body, 400, "bad extents"},
		{"bad seal", "/v1/datasets/fresh?shape=32x32x32&eb=1e-6&seal=later", body, 400, `seal must be "now"`},
		{"trailing bytes", "/v1/datasets/fresh?shape=32x32x32&eb=1e-6", append(append([]byte(nil), body...), 1, 2, 3), 400, "trailing bytes"},
		{"short body", "/v1/datasets/fresh?shape=32x32x32&eb=1e-6", body[:len(body)-8], 400, "has only"},
		{"long body", "/v1/datasets/fresh?shape=16x16x16&eb=1e-6", body, 400, "has more than"},
		{"create over existing", "/v1/datasets/density" + q, body, 409, "already exists"},
		{"snapshot of missing field", "/v1/datasets/nope/snapshots", body, 404, "create it first"},
		{"append shape mismatch", "/v1/datasets/density/snapshots?shape=16x16x16", body[:8*16*16*16], 400, "does not match the series shape"},
		{"append chunk mismatch", "/v1/datasets/density/snapshots?chunk=8x8x8", body, 400, "does not match the series tiling"},
		{"append rel without eb", "/v1/datasets/density/snapshots?rel=true", body, 400, "rel applies to an eb given with the same snapshot"},
		{"append dtype mismatch", "/v1/datasets/density/snapshots?dtype=f32", body[:4*len(e.g.Data())], 400, "does not match the series dtype"},
	}
	for _, tc := range cases {
		code, doc := e.post(t, tc.path, tc.body)
		msg, _ := doc["error"].(string)
		if code != tc.code || !strings.Contains(msg, tc.want) {
			t.Errorf("%s: status %d msg %q, want %d containing %q", tc.name, code, msg, tc.code, tc.want)
		}
	}
}

// TestIngestRefusalQuotesBoundedValue: a write's query comes from the
// client, so a refusal quotes at most 64 runes of the value it refuses —
// a 10 KB parameter draws a 400 of under 1 KB, whichever parameter it is.
func TestIngestRefusalQuotesBoundedValue(t *testing.T) {
	e := newIngestEnv(t, nil)
	body := bodyF64(e.g)
	long := strings.Repeat("1x", 5<<10)
	for _, param := range []string{"shape", "chunk", "dtype", "interp", "eb", "rel", "seal", "codec"} {
		q := url.Values{"shape": {"32x32x32"}, "eb": {"1e-6"}}
		q.Set(param, long)
		resp, err := http.Post(e.ts.URL+"/v1/datasets/density?"+q.Encode(), "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		msg, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest || len(msg) >= 1<<10 {
			t.Errorf("%d-byte %s=: status %d, %d-byte body %.200q; want 400 under 1 KB", len(long), param, resp.StatusCode, len(msg), msg)
		}
	}
}

// TestIngestRejectsCodecParam: codec= once picked a block-coding policy and
// was removed with it. A write that still names one, any value, is refused
// with a 400 naming the value, on create and on append, and stores
// nothing — it is never silently coded some other way.
func TestIngestRejectsCodecParam(t *testing.T) {
	e := newIngestEnv(t, nil)
	body := bodyF64(e.g)
	q := e.createQuery()
	for _, v := range []string{"auto", "deflate", ""} {
		code, doc := e.post(t, "/v1/datasets/density"+q+"&codec="+v, body)
		msg, _ := doc["error"].(string)
		if code != http.StatusBadRequest || !strings.Contains(msg, fmt.Sprintf("codec=%q", v)) || !strings.Contains(msg, "removed") {
			t.Fatalf("create with codec=%s: status %d msg %q, want 400 naming the value and the removal", v, code, msg)
		}
	}
	if snaps := e.c.Snapshots(); len(snaps) != 0 {
		t.Fatalf("refused creates stored %v", snaps)
	}
	if code, doc := e.post(t, "/v1/datasets/density"+q, body); code != http.StatusCreated {
		t.Fatalf("create: %d %v", code, doc)
	}
	code, doc := e.post(t, "/v1/datasets/density/snapshots?codec=auto", body)
	if msg, _ := doc["error"].(string); code != http.StatusBadRequest || !strings.Contains(msg, `codec="auto"`) {
		t.Fatalf("append with codec=auto: status %d msg %q, want 400", code, msg)
	}
	if snaps := e.c.Snapshots(); len(snaps) != 1 {
		t.Fatalf("after a refused append the store holds %v, want one snapshot", snaps)
	}
}

// TestIngestRelativeBound is the regression test for rel on appends: the
// series' inherited bound is absolute and must come through untouched —
// it used to be multiplied by the value range a second time when a
// request said rel=true without an eb — while an eb given with the
// snapshot is scaled by that snapshot's own range.
func TestIngestRelativeBound(t *testing.T) {
	e := newIngestEnv(t, nil)
	body := bodyF64(e.g)
	r := e.g.ValueRange()
	code, doc := e.post(t, "/v1/datasets/density?shape=32x32x32&chunk=16x16x16&eb=1e-6&rel=true", body)
	if code != 201 || doc["error_bound"] != 1e-6*r {
		t.Fatalf("create with rel: %d %v, want error_bound %g", code, doc, 1e-6*r)
	}
	if code, doc = e.post(t, "/v1/datasets/density/snapshots", body); code != 201 || doc["error_bound"] != 1e-6*r {
		t.Fatalf("append inheriting the bound: %d %v, want error_bound %g", code, doc, 1e-6*r)
	}
	if code, doc = e.post(t, "/v1/datasets/density/snapshots?rel=true", body); code != 400 {
		t.Fatalf("append with rel and no eb: %d %v, want 400", code, doc)
	}
	if code, doc = e.post(t, "/v1/datasets/density/snapshots?eb=1e-5&rel=true", body); code != 201 || doc["error_bound"] != 1e-5*r {
		t.Fatalf("append with its own relative bound: %d %v, want error_bound %g", code, doc, 1e-5*r)
	}
	if code, doc = e.post(t, "/v1/datasets/density/snapshots", body); code != 201 || doc["error_bound"] != 1e-5*r {
		t.Fatalf("append after the bound moved: %d %v, want error_bound %g", code, doc, 1e-5*r)
	}
}

// TestIngestUndeclaredLength sends bodies without a Content-Length
// (chunked), where the length checks cannot run before the read: the
// field is read into its exact-size buffer and the same refusals follow
// from how the stream ended.
func TestIngestUndeclaredLength(t *testing.T) {
	e := newIngestEnv(t, nil)
	body := bodyF64(e.g)
	post := func(name string, body []byte) (int, string) {
		t.Helper()
		// Hiding the reader's type keeps net/http from working out a length.
		req, err := http.NewRequest("POST", e.ts.URL+"/v1/datasets/"+name+e.createQuery(), struct{ io.Reader }{bytes.NewReader(body)})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var doc map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
			t.Fatal(err)
		}
		msg, _ := doc["error"].(string)
		return resp.StatusCode, msg
	}
	for _, tc := range []struct {
		name string
		body []byte
		code int
		want string
	}{
		{"short", body[:len(body)-8], 400, "has only 32767 elements"},
		{"ragged", body[:len(body)-5], 400, "(3 trailing bytes)"},
		{"long", append(append([]byte(nil), body...), make([]byte, 64)...), 400, "has more than 32768 elements"},
		{"trailing", append(append([]byte(nil), body...), 1, 2, 3), 400, "(3 trailing bytes)"},
		{"exact", body, 201, ""},
	} {
		if code, msg := post(tc.name, tc.body); code != tc.code || !strings.Contains(msg, tc.want) {
			t.Errorf("%s: status %d msg %q, want %d containing %q", tc.name, code, msg, tc.code, tc.want)
		}
	}
}

func TestIngestReadOnly(t *testing.T) {
	srv := New()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v1/datasets/density?shape=4&eb=1", "application/octet-stream", bytes.NewReader(make([]byte, 32)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc errorDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusForbidden || !strings.Contains(doc.Error, "-writable") {
		t.Fatalf("read-only POST: %d %q, want 403 naming -writable", resp.StatusCode, doc.Error)
	}
}

func TestIngestSealNowAndReopen(t *testing.T) {
	e := newIngestEnv(t, nil)
	code, doc := e.post(t, "/v1/datasets/density"+e.createQuery()+"&seal=now", bodyF64(e.g))
	if code != 201 || doc["sealed"] != true {
		t.Fatalf("seal=now: %d %v", code, doc)
	}
	if st := e.c.Stats(); st.Snapshots != 1 || st.EpochSnapshots != 0 {
		t.Fatalf("after seal=now: %+v, want 1 sealed snapshot", st)
	}
	// A second server over the same directory serves the sealed snapshot.
	c2, err := cas.Open(e.dir)
	if err != nil {
		t.Fatal(err)
	}
	srv2 := New()
	if err := srv2.EnableIngest(IngestOptions{CAS: c2}); err != nil {
		t.Fatal(err)
	}
	defer srv2.CloseIngest()
	if ds, ok := srv2.lookup("density@t0"); !ok || ds.info.Name != "density@t0" {
		t.Fatal("restarted server does not serve the sealed snapshot")
	}
}

func TestIngestAdmission(t *testing.T) {
	adm := &AdmissionOptions{MaxRequestBytes: 1024}
	e := newIngestEnv(t, adm)
	code, doc := e.post(t, "/v1/datasets/density"+e.createQuery(), bodyF64(e.g))
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: %d %v, want 413", code, doc)
	}

	// With the one decode slot held and a short queue timeout, a write is
	// rejected 429 with a Retry-After hint rather than queueing forever.
	adm2 := &AdmissionOptions{MaxDecodeConcurrency: 1, QueueTimeout: 1}
	e2 := newIngestEnv(t, adm2)
	if err := e2.srv.adm.acquireDecode(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer e2.srv.adm.releaseDecode()
	resp, err := http.Post(e2.ts.URL+"/v1/datasets/density"+e2.createQuery(), "application/octet-stream", bytes.NewReader(bodyF64(e2.g)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("gated write: %d Retry-After %q, want 429 with a hint", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
}

func TestIngestRefusedInClusterMode(t *testing.T) {
	srv := New()
	if err := srv.EnableCluster(ClusterOptions{
		Self:  "n1",
		Peers: []Peer{{Name: "n1", URL: "http://localhost:1"}, {Name: "n2", URL: "http://localhost:2"}},
	}); err != nil {
		t.Fatal(err)
	}
	c, err := cas.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.EnableIngest(IngestOptions{CAS: c}); err == nil || !strings.Contains(err.Error(), "cluster") {
		t.Fatalf("EnableIngest in cluster mode: %v, want a cluster refusal", err)
	}
}

func TestIngestMetricsRoute(t *testing.T) {
	e := newIngestEnv(t, nil)
	if code, doc := e.post(t, "/v1/datasets/density"+e.createQuery(), bodyF64(e.g)); code != 201 {
		t.Fatalf("create: %d %v", code, doc)
	}
	// The same body again: fingerprinted, recognised, not compressed.
	if code, doc := e.post(t, "/v1/datasets/density/snapshots", bodyF64(e.g)); code != 201 {
		t.Fatalf("append: %d %v", code, doc)
	}
	resp, err := http.Get(e.ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `route="ingest",outcome="ok"`) {
		t.Fatal("/metrics lacks the ingest request series")
	}
	for _, line := range []string{
		"# TYPE ipcomp_ingest_tiles_total counter",
		`ipcomp_ingest_tiles_total{result="compressed"} 8`,
		`ipcomp_ingest_tiles_total{result="reused"} 8`,
		fmt.Sprintf("ipcomp_ingest_bytes_total %d", 2*8*e.g.Len()),
	} {
		if !strings.Contains(string(raw), line+"\n") {
			t.Errorf("/metrics lacks %q", line)
		}
	}
	// /v1/stats mirrors them.
	if doc := e.srv.ingestDoc(); doc.TilesCompressed != 8 || doc.TilesReused != 8 || doc.Bytes != int64(2*8*e.g.Len()) {
		t.Errorf("stats ingest section %+v, want 8 tiles compressed, 8 reused, %d bytes", doc, 2*8*e.g.Len())
	}
}

// TestIngestAfterOutOfBandDelete: the field's latest snapshot is deleted
// from the CAS behind the daemon's back, so the next time step's name is
// one the server still serves. The POST is a 409 that says so and stages
// nothing; it used to compress, stage, fail to register and answer 500.
func TestIngestAfterOutOfBandDelete(t *testing.T) {
	e := newIngestEnv(t, nil)
	body := bodyF64(e.g)
	if code, doc := e.post(t, "/v1/datasets/density"+e.createQuery()+"&seal=now", body); code != 201 {
		t.Fatalf("create: %d %v", code, doc)
	}
	if code, doc := e.post(t, "/v1/datasets/density/snapshots?seal=now", body); code != 201 {
		t.Fatalf("append: %d %v", code, doc)
	}
	if err := e.c.Delete("density", 1); err != nil {
		t.Fatal(err)
	}
	code, doc := e.post(t, "/v1/datasets/density/snapshots", body)
	msg, _ := doc["error"].(string)
	if code != http.StatusConflict || !strings.Contains(msg, "density@t1") || !strings.Contains(msg, "restart") {
		t.Fatalf("POST after out-of-band delete: %d %q, want 409 naming density@t1 and the restart that clears it", code, msg)
	}
	if st := e.c.Stats(); st.Snapshots != 1 || st.EpochSnapshots != 0 {
		t.Fatalf("refused POST left %+v, want the one sealed snapshot and nothing staged", st)
	}
}
