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
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/datagen"
	"repro/internal/grid"
	"repro/internal/store"
	"repro/ipcomp/client"
)

// testEnv is one packed container served over a test HTTP server.
type testEnv struct {
	g64 *grid.Grid[float64]
	g32 []float32
	eb  float64 // absolute bound of the f64 dataset
	ts  *httptest.Server
	st  *store.Store
}

func newTestEnv(t testing.TB) *testEnv {
	t.Helper()
	g, err := datagen.GenerateShape("Density", grid.Shape{32, 32, 32})
	if err != nil {
		t.Fatal(err)
	}
	eb := 1e-6 * g.ValueRange()
	g32 := make([]float32, g.Len())
	for i, v := range g.Data() {
		g32[i] = float32(v)
	}
	var buf bytes.Buffer
	w, err := store.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Add(w, "density", g, store.WriteOptions{ErrorBound: eb, ChunkShape: grid.Shape{16, 16, 16}}); err != nil {
		t.Fatal(err)
	}
	gf32, err := grid.FromSlice(g32, g.Shape())
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Add(w, "density32", gf32, store.WriteOptions{ErrorBound: 1e-4 * g.ValueRange(), ChunkShape: grid.Shape{16, 16, 16}}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	srv := New()
	if err := srv.AddStore("test.ipcs", st); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return &testEnv{g64: g, g32: g32, eb: eb, ts: ts, st: st}
}

func (e *testEnv) getJSON(t *testing.T, path string, v any) *http.Response {
	t.Helper()
	resp, err := http.Get(e.ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
	}
	return resp
}

func TestDatasetEndpoints(t *testing.T) {
	e := newTestEnv(t)
	var list struct {
		Datasets []DatasetDoc `json:"datasets"`
	}
	if resp := e.getJSON(t, "/v1/datasets", &list); resp.StatusCode != 200 {
		t.Fatalf("list status %d", resp.StatusCode)
	}
	if len(list.Datasets) != 2 || list.Datasets[0].Name != "density" || list.Datasets[1].Name != "density32" {
		t.Fatalf("unexpected listing %+v", list)
	}
	if list.Datasets[1].Scalar != "float32" {
		t.Errorf("density32 scalar = %q", list.Datasets[1].Scalar)
	}
	var one DatasetDoc
	if resp := e.getJSON(t, "/v1/datasets/density", &one); resp.StatusCode != 200 {
		t.Fatalf("dataset status %d", resp.StatusCode)
	}
	if one.NumChunks != 8 || len(one.Shape) != 3 {
		t.Errorf("unexpected dataset doc %+v", one)
	}
	var errDoc struct {
		Error  string `json:"error"`
		Status int    `json:"status"`
	}
	if resp := e.getJSON(t, "/v1/datasets/nope", &errDoc); resp.StatusCode != 404 || errDoc.Status != 404 {
		t.Errorf("unknown dataset: status %d, doc %+v", resp.StatusCode, errDoc)
	}
	if resp := e.getJSON(t, "/healthz", nil); resp.StatusCode != 200 {
		t.Errorf("healthz status %d", resp.StatusCode)
	}
}

func TestRegionRaw(t *testing.T) {
	e := newTestEnv(t)
	bound := 64 * e.eb
	u := e.ts.URL + "/v1/datasets/density/region?lo=4,0,4&hi=20,32,16&bound=" + strconv.FormatFloat(bound, 'g', -1, 64)
	resp, err := http.Get(u)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Ipcomp-Shape"); got != "16x32x12" {
		t.Errorf("shape header %q", got)
	}
	guar, err := strconv.ParseFloat(resp.Header.Get("X-Ipcomp-Guaranteed-Error"), 64)
	if err != nil || guar > bound {
		t.Errorf("guaranteed error header %q (bound %g)", resp.Header.Get("X-Ipcomp-Guaranteed-Error"), bound)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	n := 16 * 32 * 12
	if len(body) != n*8 {
		t.Fatalf("body is %d bytes, want %d", len(body), n*8)
	}
	i := 0
	for x := 4; x < 20; x++ {
		for y := 0; y < 32; y++ {
			for z := 4; z < 16; z++ {
				v := math.Float64frombits(binary.LittleEndian.Uint64(body[i*8:]))
				if d := math.Abs(v - e.g64.At(x, y, z)); d > guar {
					t.Fatalf("value at (%d,%d,%d) off by %g (guaranteed %g)", x, y, z, d, guar)
				}
				i++
			}
		}
	}

	// dtype=f32 halves the body.
	resp2, err := http.Get(u + "&dtype=f32")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	body2, _ := io.ReadAll(resp2.Body)
	if len(body2) != n*4 {
		t.Errorf("f32 body is %d bytes, want %d", len(body2), n*4)
	}
	if got := resp2.Header.Get("X-Ipcomp-Scalar"); got != "float32" {
		t.Errorf("scalar header %q", got)
	}
}

// TestRegionRawBytes pins the raw body byte for byte against the
// value-by-value little-endian encoding of what the store retrieves for
// the same request: both native widths, and both forced conversions.
func TestRegionRawBytes(t *testing.T) {
	e := newTestEnv(t)
	lo, hi := []int{3, 0, 5}, []int{19, 17, 32}
	for _, tc := range []struct {
		dataset, dtype string
		bound          float64
		f32            bool
	}{
		{"density", "", 16 * e.eb, false},
		{"density", "f32", 16 * e.eb, true},
		{"density32", "", 0, true},
		{"density32", "f64", 0, false},
	} {
		reg, err := e.st.RetrieveRegion(tc.dataset, lo, hi, tc.bound)
		if err != nil {
			t.Fatal(err)
		}
		var want []byte
		if tc.f32 {
			for _, v := range reg.DataFloat32() {
				want = binary.LittleEndian.AppendUint32(want, math.Float32bits(v))
			}
		} else {
			for _, v := range reg.Data() {
				want = binary.LittleEndian.AppendUint64(want, math.Float64bits(v))
			}
		}
		u := fmt.Sprintf("%s/v1/datasets/%s/region?lo=3,0,5&hi=19,17,32&bound=%g&dtype=%s", e.ts.URL, tc.dataset, tc.bound, tc.dtype)
		resp, err := http.Get(u)
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != 200 {
			t.Fatalf("%s dtype=%q: status %d, %v", tc.dataset, tc.dtype, resp.StatusCode, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s dtype=%q: body of %d bytes differs from the value-by-value encoding (%d bytes)", tc.dataset, tc.dtype, len(got), len(want))
		}
	}
}

// TestProgressiveClient is the end-to-end acceptance test: a client
// retrieves a region at a loose bound over HTTP, refines it with a token,
// pays measurably fewer bytes for the refinement than for the initial
// response, and ends up with data honoring the tighter bound.
func TestProgressiveClient(t *testing.T) {
	e := newTestEnv(t)
	ctx := context.Background()
	c := client.New(e.ts.URL)

	dss, err := c.Datasets(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(dss) != 2 {
		t.Fatalf("client lists %d datasets", len(dss))
	}

	lo, hi := []int{0, 0, 0}, []int{24, 32, 24}
	loose, tight := 512*e.eb, 16*e.eb
	reg, err := c.Region(ctx, "density", lo, hi, loose)
	if err != nil {
		t.Fatal(err)
	}
	initialBytes := reg.FetchedBytes()
	if reg.GuaranteedError() > loose {
		t.Errorf("initial guarantee %g > requested %g", reg.GuaranteedError(), loose)
	}
	if reg.Chunks() != 8 {
		t.Errorf("region backed by %d tiles, want 8", reg.Chunks())
	}
	checkWithin := func(bound float64) {
		t.Helper()
		data := reg.Data()
		i := 0
		for x := lo[0]; x < hi[0]; x++ {
			for y := lo[1]; y < hi[1]; y++ {
				for z := lo[2]; z < hi[2]; z++ {
					if d := math.Abs(data[i] - e.g64.At(x, y, z)); d > bound {
						t.Fatalf("value at (%d,%d,%d) off by %g (bound %g)", x, y, z, d, bound)
					}
					i++
				}
			}
		}
	}
	checkWithin(loose)
	if reg.Token() == "" {
		t.Fatal("initial response carried no token")
	}

	if err := reg.Refine(ctx, tight); err != nil {
		t.Fatal(err)
	}
	refineBytes := reg.FetchedBytes() - initialBytes
	if refineBytes <= 0 {
		t.Fatal("refinement fetched nothing")
	}
	if refineBytes >= initialBytes {
		t.Errorf("refinement fetched %d bytes, initial response was %d — delta serving saved nothing",
			refineBytes, initialBytes)
	}
	if reg.GuaranteedError() > tight {
		t.Errorf("refined guarantee %g > requested %g", reg.GuaranteedError(), tight)
	}
	checkWithin(tight)

	// A fresh fetch at the tight bound must agree with the refined region
	// within the guarantee, and must cost more than the refinement alone.
	fresh, err := c.Region(ctx, "density", lo, hi, tight)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.FetchedBytes() <= refineBytes {
		t.Errorf("fresh fetch %d bytes <= refinement %d — the delta should be a strict subset",
			fresh.FetchedBytes(), refineBytes)
	}
	fd, rd := fresh.Data(), reg.Data()
	for i := range fd {
		if d := math.Abs(fd[i] - rd[i]); d > 2*tight {
			t.Fatalf("refined and fresh retrievals disagree by %g at %d", d, i)
		}
	}

	// Refining to a bound already held is a no-op delta.
	before := reg.FetchedBytes()
	if err := reg.Refine(ctx, tight); err != nil {
		t.Fatal(err)
	}
	if noop := reg.FetchedBytes() - before; noop > 256 {
		t.Errorf("no-op refinement fetched %d bytes", noop)
	}
}

// TestProgressiveClientFloat32 runs the same flow on a float32 dataset,
// where refinement rebuilds from truncated indices — the result must be
// bit-identical to a fresh retrieval at the same bound.
func TestProgressiveClientFloat32(t *testing.T) {
	e := newTestEnv(t)
	ctx := context.Background()
	c := client.New(e.ts.URL)
	eb32 := 1e-4 * e.g64.ValueRange()

	lo, hi := []int{0, 0, 0}, []int{32, 16, 32}
	reg, err := c.Region(ctx, "density32", lo, hi, 256*eb32)
	if err != nil {
		t.Fatal(err)
	}
	if reg.Scalar().String() != "float32" {
		t.Fatalf("scalar %v", reg.Scalar())
	}
	if err := reg.Refine(ctx, 4*eb32); err != nil {
		t.Fatal(err)
	}
	fresh, err := c.Region(ctx, "density32", lo, hi, 4*eb32)
	if err != nil {
		t.Fatal(err)
	}
	got, want := reg.DataFloat32(), fresh.DataFloat32()
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("refined f32 value %d = %g, fresh retrieval %g", i, got[i], want[i])
		}
	}
}

func TestRegionErrors(t *testing.T) {
	e := newTestEnv(t)
	status := func(path string) int {
		t.Helper()
		resp, err := http.Get(e.ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode
	}
	base := "/v1/datasets/density/region"
	for _, tc := range []struct {
		path string
		want int
	}{
		{base + "?lo=0,0&hi=8,8,8", 400},                // rank mismatch
		{base + "?lo=0,0,0&hi=64,8,8", 400},             // outside shape
		{base + "?lo=0,0,0&hi=8,8,8&bound=nope", 400},   // bad bound
		{base + "?lo=0,0,0&hi=8,8,8&bound=1e-300", 400}, // too tight
		{base + "?lo=0,0,0&hi=8,8,8&format=xml", 400},   // bad format
		{base + "?lo=0,0,0&hi=8,8,8&refine=abc", 400},   // refine w/o planes
		{base + "?lo=0,0,0&hi=8,8,8&format=planes&refine=!", 400},
		{"/v1/datasets/nope/region?lo=0,0,0&hi=8,8,8", 404},
	} {
		if got := status(tc.path); got != tc.want {
			t.Errorf("%s: status %d, want %d", tc.path, got, tc.want)
		}
	}

	// A token for one region must not refine another.
	resp, err := http.Get(e.ts.URL + base + "?lo=0,0,0&hi=8,8,8&format=planes")
	if err != nil {
		t.Fatal(err)
	}
	tok := resp.Header.Get("X-Ipcomp-Token")
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if tok == "" {
		t.Fatal("no token on planes response")
	}
	if got := status(base + "?lo=0,0,0&hi=16,16,16&format=planes&refine=" + tok); got != 409 {
		t.Errorf("mismatched token: status %d, want 409", got)
	}
}

// TestRegionRefusalQuotesBoundedValue: a read's query comes from the
// client too, so a refused format= or bound= quotes at most 64 runes of
// it, as a refused write does — a 10 KB value draws a 400 of under 1 KB.
func TestRegionRefusalQuotesBoundedValue(t *testing.T) {
	e := newTestEnv(t)
	long := strings.Repeat("1x", 5<<10)
	for _, param := range []string{"format", "bound"} {
		q := url.Values{"lo": {"0,0,0"}, "hi": {"8,8,8"}}
		q.Set(param, long)
		resp, err := http.Get(e.ts.URL + "/v1/datasets/density/region?" + q.Encode())
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

// TestConcurrentRequests drives overlapping raw requests through the full
// HTTP stack and asserts (via /v1/stats) that the store decoded each tile
// once — the serving path's cache-sharing guarantee, race-checked in CI.
func TestConcurrentRequests(t *testing.T) {
	e := newTestEnv(t)
	bound := strconv.FormatFloat(64*e.eb, 'g', -1, 64)
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(e.ts.URL + "/v1/datasets/density/region?lo=0,0,0&hi=32,32,32&bound=" + bound)
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			if _, err := io.Copy(io.Discard, resp.Body); err != nil {
				errs <- err
				return
			}
			if resp.StatusCode != 200 {
				errs <- fmt.Errorf("status %d", resp.StatusCode)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	var stats StatsDoc
	e.getJSON(t, "/v1/stats", &stats)
	if stats.TileDecodes != 8 {
		t.Errorf("16 concurrent full-volume requests decoded %d tiles, want 8 (one per tile)", stats.TileDecodes)
	}
}
