package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// fetchTraceList pulls and decodes GET /debug/traces from one node.
func fetchTraceList(t *testing.T, baseURL string) []obs.TraceDoc {
	t.Helper()
	resp, err := http.Get(baseURL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET /debug/traces: status %d: %s", resp.StatusCode, body)
	}
	var doc struct {
		Traces []obs.TraceDoc `json:"traces"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	return doc.Traces
}

// TestClusterTracePropagation pins the distributed-trace contract: a
// region request routed through a non-owning node produces ONE trace —
// retrievable from the router's /debug/traces/{id} — whose spans come
// from both the router (forward, relay) and the owner (warm sweep / tile
// decode, merged via the span response header), and those spans cover at
// least 95% of the request's wall time. The stitching header itself must
// never leak to the client.
func TestClusterTracePropagation(t *testing.T) {
	env := newClusterEnv(t, 3, 1, nil)
	for _, n := range env.nodes {
		n.srv.EnableTracing(obs.Options{Sample: 1})
	}
	owner, stranger := env.ownerAndStranger(0)

	u := fmt.Sprintf("%s/v1/datasets/%s/region?lo=0,0,0&hi=16,16,16&bound=%s",
		stranger.ts.URL, env.datasets[0], formatFloat(16*env.eb))
	resp, err := http.Get(u)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("forwarded region request: status %d", resp.StatusCode)
	}
	if got := resp.Header.Get(obs.SpansHeader); got != "" {
		t.Errorf("stitching header %s leaked to the client: %q", obs.SpansHeader, got)
	}
	if got := resp.Header.Get(ServedByHeader); got != owner.name {
		t.Fatalf("request served by %q, want forwarded to owner %q", got, owner.name)
	}

	// Finish runs after the response body is written, so the trace can
	// land in the ring a beat after the client sees the response.
	var trace *obs.TraceDoc
	deadline := time.Now().Add(2 * time.Second)
	for trace == nil {
		for _, d := range fetchTraceList(t, stranger.ts.URL) {
			if d.Route == "region" && d.Target == env.datasets[0] {
				trace = &d
				break
			}
		}
		if trace == nil {
			if time.Now().After(deadline) {
				t.Fatal("no region trace appeared on the routing node")
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	// The by-id endpoint must return the same trace.
	resp, err = http.Get(stranger.ts.URL + "/debug/traces/" + trace.ID)
	if err != nil {
		t.Fatal(err)
	}
	var byID obs.TraceDoc
	err = json.NewDecoder(resp.Body).Decode(&byID)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if byID.ID != trace.ID || len(byID.Spans) != len(trace.Spans) {
		t.Fatalf("by-id trace %+v differs from listed trace %+v", byID, *trace)
	}

	local, remote := 0, 0
	for _, sp := range trace.Spans {
		switch sp.Node {
		case "":
			local++
		case owner.name:
			remote++
		default:
			t.Errorf("span %s from unexpected node %q", sp.Stage, sp.Node)
		}
	}
	if local == 0 || remote == 0 {
		t.Fatalf("trace %s has %d local and %d owner spans; want both sides of the forward (spans: %s)",
			trace.ID, local, remote, trace.StageBreakdown())
	}
	if trace.Coverage < 0.95 {
		t.Errorf("spans cover %.0f%% of the request's wall time, want >= 95%% (spans: %s)",
			100*trace.Coverage, trace.StageBreakdown())
	}

	// The owner recorded its joined half too, under the same id.
	if _, err := http.Get(owner.ts.URL + "/debug/traces/" + trace.ID); err != nil {
		t.Fatal(err)
	}
}

// TestStageSecondsScrape pins the derived per-stage histogram and the
// build-info gauge in /metrics: after one cold region request with
// tracing on, the decode stages appear as valid cumulative series, and
// the newly-instrumented non-region routes land in the request histogram.
func TestStageSecondsScrape(t *testing.T) {
	env := newBenchEnv(t)
	env.srv.EnableTracing(obs.Options{Sample: 1})
	ts := httptest.NewServer(env.srv.Handler())
	defer ts.Close()

	for _, path := range []string{env.regionPath(""), "/v1/datasets", "/v1/datasets/density", "/v1/containers"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	body := string(b)

	if !strings.Contains(body, "# TYPE ipcomp_stage_seconds histogram") {
		t.Fatalf("scrape is missing the ipcomp_stage_seconds family:\n%s", body)
	}
	for _, stage := range []string{"warm_sweep", "tile_decode"} {
		if !strings.Contains(body, `ipcomp_stage_seconds_count{stage="`+stage+`"}`) {
			t.Errorf("scrape is missing stage %q after a cold region request", stage)
		}
		if !strings.Contains(body, `ipcomp_stage_seconds_bucket{stage="`+stage+`",le="+Inf"}`) {
			t.Errorf("stage %q has no +Inf bucket", stage)
		}
	}
	// Buckets must be cumulative: each stage's +Inf bucket equals _count.
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, `ipcomp_stage_seconds_bucket{stage="warm_sweep",le="+Inf"}`) {
			continue
		}
		inf := strings.Fields(line)[1]
		if !strings.Contains(body, `ipcomp_stage_seconds_count{stage="warm_sweep"} `+inf) {
			t.Errorf("warm_sweep +Inf bucket %s != _count", inf)
		}
	}

	if !strings.Contains(body, "# TYPE ipcomp_build_info gauge") ||
		!strings.Contains(body, `ipcomp_build_info{version=`) ||
		!strings.Contains(body, `goversion="go`) {
		t.Error("scrape is missing the ipcomp_build_info gauge")
	}

	// Satellite: the non-region routes are instrumented now.
	for _, route := range []string{"list", "meta", "containers"} {
		if !strings.Contains(body, `ipcomp_request_seconds_count{route="`+route+`",outcome="ok"}`) {
			t.Errorf("request histogram is missing route %q", route)
		}
	}

	// /v1/stats carries the same build identity as the gauge.
	resp, err = http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Build BuildDoc `json:"build"`
	}
	err = json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Build.Version == "" || !strings.HasPrefix(stats.Build.GoVersion, "go") {
		t.Errorf("stats build section %+v is missing version or go version", stats.Build)
	}
}

// TestServerRegionWarmAllocsTracingInstalled re-pins the warm-path
// allocation budget with the trace recorder compiled in and installed but
// disabled (the production default): tracing must cost nil checks, not
// allocations.
func TestServerRegionWarmAllocsTracingInstalled(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	env := newBenchEnv(t)
	env.srv.EnableTracing(obs.Options{}) // installed, disabled
	handler := env.srv.Handler()
	req := httptest.NewRequest("GET", env.regionPath(""), nil)
	w := &discardResponseWriter{h: make(http.Header)}
	handler.ServeHTTP(w, req)
	if w.status != 0 && w.status != 200 {
		t.Fatalf("status %d", w.status)
	}
	allocs := testing.AllocsPerRun(50, func() {
		w.reset()
		handler.ServeHTTP(w, req)
	})
	if allocs > 20 {
		t.Fatalf("warm region request with tracing installed allocates %.1f objects/op, budget is 20", allocs)
	}
	t.Logf("warm region request with tracing installed: %.1f allocs/op", allocs)
}
