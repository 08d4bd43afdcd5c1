package server

import (
	"bytes"
	"context"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/grid"
	"repro/internal/store"
	"repro/ipcomp/client"
)

func admissionGet(t *testing.T, url string) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp
}

// TestAdmissionQueueAndDegradeRaw exercises the decode semaphore end to
// end: a cold request with the only slot taken times out of the queue and
// is rejected when nothing is cached, degraded to the best cached
// fidelity when something is, while warm requests bypass admission
// entirely.
func TestAdmissionQueueAndDegradeRaw(t *testing.T) {
	env := newBenchEnv(t)
	env.srv.SetAdmission(AdmissionOptions{
		MaxDecodeConcurrency: 1,
		QueueTimeout:         30 * time.Millisecond,
		Degrade:              true,
	})
	ts := httptest.NewServer(env.srv.Handler())
	defer ts.Close()

	bound := strconv.FormatFloat(64*env.eb, 'g', -1, 64)
	coarseURL := ts.URL + "/v1/datasets/density/region?lo=8,8,8&hi=56,56,56&bound=" + bound
	tightURL := ts.URL + "/v1/datasets/density/region?lo=8,8,8&hi=56,56,56&bound=" +
		strconv.FormatFloat(env.eb, 'g', -1, 64)

	// Occupy the only decode slot: a cold request must queue, time out,
	// find nothing cached, and get 429 with the Retry-After hint.
	env.srv.adm.slots <- struct{}{}
	resp := admissionGet(t, coarseURL)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("cold request with decode slots exhausted: status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("Retry-After = %q, want \"1\"", ra)
	}
	if q := env.srv.adm.queued.Load(); q != 1 {
		t.Fatalf("queued counter = %d, want 1", q)
	}
	if rej := env.srv.adm.rejected.Load(); rej != 1 {
		t.Fatalf("rejected counter = %d, want 1", rej)
	}

	// Release the slot and warm the region at the coarse bound.
	<-env.srv.adm.slots
	if resp := admissionGet(t, coarseURL); resp.StatusCode != 200 {
		t.Fatalf("warming request: status %d", resp.StatusCode)
	}

	// Re-occupy the slot. A tighter request needs refine work, times out,
	// but now the coarse fidelity is cached: it must be answered degraded.
	env.srv.adm.slots <- struct{}{}
	resp = admissionGet(t, tightURL)
	if resp.StatusCode != 200 {
		t.Fatalf("degradable tight request: status %d, want 200", resp.StatusCode)
	}
	if resp.Header.Get("X-Ipcomp-Degraded") != "true" {
		t.Fatal("degraded response is missing X-Ipcomp-Degraded: true")
	}
	g, err := strconv.ParseFloat(resp.Header.Get("X-Ipcomp-Guaranteed-Error"), 64)
	if err != nil || g <= env.eb || g > 64*env.eb {
		t.Fatalf("degraded guaranteed error = %v (%v), want within (eb, 64eb]", g, err)
	}
	if d := env.srv.adm.degraded.Load(); d != 1 {
		t.Fatalf("degraded counter = %d, want 1", d)
	}

	// Warm traffic at the cached fidelity must bypass admission: the slot
	// is still taken, yet the request is served full-quality.
	resp = admissionGet(t, coarseURL)
	if resp.StatusCode != 200 || resp.Header.Get("X-Ipcomp-Degraded") != "" {
		t.Fatalf("warm request with slots exhausted: status %d degraded=%q, want clean 200",
			resp.StatusCode, resp.Header.Get("X-Ipcomp-Degraded"))
	}
	<-env.srv.adm.slots
}

// TestRawDegradeOneSweep pins the cost and the answer of a degraded raw
// request. With the decode slot taken, a region that meets an uncached
// tile is refused after one sweep of the cache, which reads each cached
// tile once; a fully cached region is answered with exactly what the
// cache holds, as a warm request at the cached fidelity would be.
func TestRawDegradeOneSweep(t *testing.T) {
	env := newBenchEnv(t)
	env.srv.SetAdmission(AdmissionOptions{
		MaxDecodeConcurrency: 1,
		QueueTimeout:         30 * time.Millisecond,
		Degrade:              true,
	})
	ts := httptest.NewServer(env.srv.Handler())
	defer ts.Close()

	regionURL := func(hi0 int, bound float64) string {
		return ts.URL + "/v1/datasets/density/region?lo=0,0,0&hi=" + strconv.Itoa(hi0) +
			",64,64&bound=" + strconv.FormatFloat(bound, 'g', -1, 64)
	}
	get := func(url string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, body
	}
	coarse := 64 * env.eb

	// Warm half the field (four of its eight 32³ tiles) at the coarse bound.
	if resp, _ := get(regionURL(32, coarse)); resp.StatusCode != 200 {
		t.Fatalf("warming request: status %d", resp.StatusCode)
	}
	cached := env.st.Stats().TileDecodes
	if cached != 4 {
		t.Fatalf("warming decoded %d tiles, want 4", cached)
	}

	// A tight request for the whole field finds no tile fine enough, queues
	// and times out; four of its tiles are cached, four are not, so it is
	// refused, and the cache is swept once.
	env.srv.adm.slots <- struct{}{}
	hits := env.st.Stats().TileHits
	resp, _ := get(regionURL(64, env.eb))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("region with uncached tiles: status %d, want 429", resp.StatusCode)
	}
	if got := env.st.Stats().TileHits - hits; got != cached {
		t.Fatalf("refused request read %d cached tiles, want %d (one sweep)", got, cached)
	}
	<-env.srv.adm.slots

	// Warm the rest; the coarse request that follows is what the cache holds.
	if resp, _ := get(regionURL(64, coarse)); resp.StatusCode != 200 {
		t.Fatalf("warming request: status %d", resp.StatusCode)
	}
	want, wantBody := get(regionURL(64, coarse))
	if want.StatusCode != 200 || want.Header.Get("X-Ipcomp-Degraded") != "" {
		t.Fatalf("warm request: status %d degraded=%q", want.StatusCode, want.Header.Get("X-Ipcomp-Degraded"))
	}

	env.srv.adm.slots <- struct{}{}
	defer func() { <-env.srv.adm.slots }()
	hits = env.st.Stats().TileHits
	got, gotBody := get(regionURL(64, env.eb))
	if got.StatusCode != 200 || got.Header.Get("X-Ipcomp-Degraded") != "true" {
		t.Fatalf("fully cached region: status %d degraded=%q, want a degraded 200",
			got.StatusCode, got.Header.Get("X-Ipcomp-Degraded"))
	}
	if n := env.st.Stats().TileHits - hits; n != 8 {
		t.Fatalf("degraded request read %d cached tiles, want 8 (one sweep)", n)
	}
	if !bytes.Equal(gotBody, wantBody) {
		t.Fatal("degraded body differs from the cached tiles")
	}
	for _, h := range []string{"Content-Length", "X-Ipcomp-Shape", "X-Ipcomp-Scalar",
		"X-Ipcomp-Guaranteed-Error", "X-Ipcomp-Loaded-Bytes", "X-Ipcomp-Chunks"} {
		if got.Header.Get(h) != want.Header.Get(h) {
			t.Errorf("%s = %q, want %q", h, got.Header.Get(h), want.Header.Get(h))
		}
	}
}

// TestPlanBytesMonotoneInBound pins the premise of the planes degrade
// ladder on the tiles the server is benchmarked with: a region plan's wire
// size never grows as the bound loosens. It walks bounds up by ×1.07 on
// random boxes, for fresh and refine plans, at both scalar widths, on a
// field whose tiles divide it and on one whose edge tiles are partial.
//
// A 32³ tile at the default progressive threshold has one progressive
// level, so its plan is a single plane count, monotone by construction.
// The premise does not hold in general: with two or more progressive
// levels per tile (64³ tiles, or a progressive threshold of 8 or 64),
// per-level plans move both ways as the bound loosens, and the same walk
// finds plans that grow, refine plans above all, by up to 16 KB.
func TestPlanBytesMonotoneInBound(t *testing.T) {
	var buf bytes.Buffer
	w, err := store.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	shapes := map[string]grid.Shape{}
	for _, shape := range []grid.Shape{{64, 64, 64}, {48, 40, 36}} {
		g, err := datagen.GenerateShape("Density", shape)
		if err != nil {
			t.Fatal(err)
		}
		name := shape.String()
		opt := store.WriteOptions{ErrorBound: 1e-6 * g.ValueRange(), ChunkShape: grid.Shape{32, 32, 32}}
		if err := store.Add(w, name, g, opt); err != nil {
			t.Fatal(err)
		}
		opt.ErrorBound = 1e-4 * g.ValueRange()
		if err := store.Add(w, name+"/f32", grid.Narrow(g), opt); err != nil {
			t.Fatal(err)
		}
		shapes[name], shapes[name+"/f32"] = shape, shape
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}

	r := rand.New(rand.NewSource(7))
	for _, info := range st.Datasets() {
		shape, eb := shapes[info.Name], info.ErrorBound
		for box := 0; box < 6; box++ {
			lo, hi := make([]int, len(shape)), make([]int, len(shape))
			for d, n := range shape {
				lo[d] = r.Intn(n)
				hi[d] = lo[d] + 1 + r.Intn(n-lo[d])
			}
			// A fresh plan, and a refine from a bound the client holds.
			for _, have := range []float64{0, eb * math.Pow(2, 2+14*r.Float64())} {
				prev := int64(-1)
				for b := eb; b < eb*(1<<20); b *= 1.07 {
					rp, err := st.PlanRegion(info.Name, lo, hi, b, have)
					if err != nil {
						t.Fatal(err)
					}
					n, err := planTotal(rp, len(lo))
					if err != nil {
						t.Fatal(err)
					}
					if prev >= 0 && n > prev {
						t.Fatalf("%s [%v,%v) have %g: %d wire bytes at bound %g, %d at %g", info.Name, lo, hi, have, n, b, prev, b/1.07)
					}
					prev = n
				}
			}
		}
	}
}

// TestAdmissionByteBudget checks the per-request byte budget: raw
// responses over budget are 413 (their size cannot degrade), planes
// responses over budget are 429 when degradation is off.
func TestAdmissionByteBudget(t *testing.T) {
	env := newBenchEnv(t)
	env.srv.SetAdmission(AdmissionOptions{MaxRequestBytes: 4096})
	ts := httptest.NewServer(env.srv.Handler())
	defer ts.Close()

	url := ts.URL + env.regionPath("")
	resp := admissionGet(t, url)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("over-budget raw: status %d, want 413", resp.StatusCode)
	}
	resp = admissionGet(t, url+"&format=planes")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-budget planes without degrade: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 response is missing Retry-After")
	}
	if rej := env.srv.adm.rejected.Load(); rej != 2 {
		t.Fatalf("rejected counter = %d, want 2", rej)
	}

	// A small raw region under the budget still flows.
	small := ts.URL + "/v1/datasets/density/region?lo=0,0,0&hi=8,8,8&bound=" +
		strconv.FormatFloat(64*env.eb, 'g', -1, 64)
	if resp := admissionGet(t, small); resp.StatusCode != 200 {
		t.Fatalf("under-budget raw: status %d, want 200", resp.StatusCode)
	}
}

// TestDegradedPlanesRefineBitIdentical is the degradation round trip the
// protocol promises: a planes request over the byte budget is answered at
// a coarser bound with a valid token, and refining that token back to the
// originally requested bound converges to the direct fetch from an
// unbudgeted server — bit-identically at both scalar widths, because a
// reconstruction is a pure function of (archive, plan) regardless of the
// refinement path.
func TestDegradedPlanesRefineBitIdentical(t *testing.T) {
	// 64³ fields in 32³ tiles: tiles must clear the progressive threshold,
	// or plans are bound-independent and nothing can degrade.
	g, err := datagen.GenerateShape("Density", grid.Shape{64, 64, 64})
	if err != nil {
		t.Fatal(err)
	}
	eb := 1e-6 * g.ValueRange()
	eb32 := 1e-4 * g.ValueRange()
	var buf bytes.Buffer
	w, err := store.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Add(w, "density", g, store.WriteOptions{ErrorBound: eb, ChunkShape: grid.Shape{32, 32, 32}}); err != nil {
		t.Fatal(err)
	}
	g32, err := grid.FromSlice(grid.NarrowSlice(g.Data()), g.Shape())
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Add(w, "density32", g32, store.WriteOptions{ErrorBound: eb32, ChunkShape: grid.Shape{32, 32, 32}}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	plain := New()
	if err := plain.AddStore("truth.ipcs", st); err != nil {
		t.Fatal(err)
	}
	tsB := httptest.NewServer(plain.Handler())
	defer tsB.Close()

	lo, hi := []int{0, 0, 0}, []int{64, 64, 64}
	ctx := context.Background()
	planSize := func(name string, bound float64) int64 {
		t.Helper()
		rp, err := st.PlanRegion(name, lo, hi, bound, 0)
		if err != nil {
			t.Fatal(err)
		}
		n, err := planTotal(rp, len(lo))
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	// Two servers share one store: the budgeted one degrades, the plain
	// one (tsB) is ground truth.
	budgeted := New()
	if err := budgeted.AddStore("shared.ipcs", st); err != nil {
		t.Fatal(err)
	}
	tsA := httptest.NewServer(budgeted.Handler())
	defer tsA.Close()

	for _, tc := range []struct {
		name  string
		eb    float64
		truth []float64
	}{{"density32", eb32, grid.WidenSlice(g32.Data())}, {"density", eb, g.Data()}} {
		tight := 4 * tc.eb
		// Size the budget between the minimal plan (coarse levels ship whole
		// regardless of bound — no degradation shaves them) and the full
		// plan, so the test holds as compression details shift: degradation
		// is forced, yet every ladder step has room to make progress.
		full := planSize(tc.name, tight)
		minimal := planSize(tc.name, tc.eb*math.Pow(2, 50))
		if minimal >= full {
			t.Fatalf("%s: minimal plan %d >= full plan %d; dataset unsuitable for a degradation test", tc.name, minimal, full)
		}
		budgeted.SetAdmission(AdmissionOptions{MaxRequestBytes: minimal + (full-minimal)/4, Degrade: true})
		degradedBefore := budgeted.adm.degraded.Load()

		reg, err := client.New(tsA.URL).Region(ctx, tc.name, lo, hi, tight)
		if err != nil {
			t.Fatal(err)
		}
		if reg.Bound() <= tight {
			t.Fatalf("%s: budgeted first response bound %g should be degraded above %g", tc.name, reg.Bound(), tight)
		}
		if budgeted.adm.degraded.Load() == degradedBefore {
			t.Fatalf("%s: degraded counter did not move", tc.name)
		}

		// Refine toward the original bound; each round ships the fitting
		// slice of the remaining delta, so the loop must terminate.
		for i := 0; reg.Bound() > tight; i++ {
			if i >= 20 {
				t.Fatalf("%s: refinement did not converge: bound still %g after %d rounds", tc.name, reg.Bound(), i)
			}
			if err := reg.Refine(ctx, tight); err != nil {
				t.Fatalf("%s: refine round %d: %v", tc.name, i, err)
			}
		}

		ref, err := client.New(tsB.URL).Region(ctx, tc.name, lo, hi, tight)
		if err != nil {
			t.Fatal(err)
		}
		// Widening float32 is lossless, so float64 bits decide both widths.
		got, want := reg.Data(), ref.Data()
		if len(got) != len(want) {
			t.Fatalf("%s: len %d != %d", tc.name, len(got), len(want))
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: element %d differs after refinement: %x != %x",
					tc.name, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
			}
			if d := math.Abs(got[i] - tc.truth[i]); d > tight {
				t.Fatalf("%s: value %d off by %g after degraded refinement (bound %g)", tc.name, i, d, tight)
			}
		}
		if reg.GuaranteedError() != ref.GuaranteedError() {
			t.Fatalf("%s: guaranteed error %g != %g", tc.name, reg.GuaranteedError(), ref.GuaranteedError())
		}
	}
}
