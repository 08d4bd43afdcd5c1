package server

import (
	"bytes"
	"context"
	"io"
	"math"
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
	if err := w.AddGrid("density", g, store.WriteOptions{ErrorBound: eb, ChunkShape: grid.Shape{32, 32, 32}}); err != nil {
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
