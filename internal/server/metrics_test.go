package server

import (
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestMetricsSingleNode pins the Prometheus exposition of a plain node:
// the core families are present with HELP/TYPE headers, cluster families
// are absent, and decode work moves the counters.
func TestMetricsSingleNode(t *testing.T) {
	env := newTestEnv(t)
	scrape := func() string {
		resp, err := http.Get(env.ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
			t.Fatalf("metrics content type %q", ct)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	body := scrape()
	for _, family := range []string{
		"ipcomp_datasets", "ipcomp_containers", "ipcomp_ready",
		"ipcomp_tile_decodes_total", "ipcomp_tile_refines_total", "ipcomp_tile_hits_total",
		"ipcomp_tile_cache_bytes", "ipcomp_tile_cache_entries", "ipcomp_tile_cache_evictions_total",
		"ipcomp_backend_hits_total", "ipcomp_backend_misses_total",
	} {
		if !strings.Contains(body, "# TYPE "+family+" ") {
			t.Errorf("metrics missing family %s", family)
		}
	}
	if strings.Contains(body, "ipcomp_cluster_") {
		t.Error("single-node metrics expose cluster families")
	}
	if !strings.Contains(body, "\nipcomp_tile_decodes_total 0\n") || !strings.Contains(body, "\nipcomp_tile_cache_entries 0\n") {
		t.Errorf("fresh node should report zero decodes and an empty tile cache:\n%s", body)
	}

	// One region request decodes tiles; the counter must move.
	resp, err := http.Get(env.ts.URL + "/v1/datasets/density/region?lo=0,0,0&hi=16,16,16&bound=" + formatFloat(16*env.eb))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	body = scrape()
	if strings.Contains(body, "\nipcomp_tile_decodes_total 0\n") {
		t.Error("tile decode counter did not move after a region request")
	}
	if strings.Contains(body, "\nipcomp_tile_cache_entries 0\n") || strings.Contains(body, "\nipcomp_tile_cache_bytes 0\n") {
		t.Error("tile cache gauges did not move after a region request decoded tiles")
	}
}

// TestMetricsRequestHistogram pins the request latency histogram and the
// admission counters: after one of each outcome (clean raw, clean planes,
// degraded planes, rejected raw) the scrape carries exactly those series
// in valid cumulative form, with the +Inf bucket equal to _count, and the
// admission counters reflect what happened.
func TestMetricsRequestHistogram(t *testing.T) {
	env := newBenchEnv(t)
	ts := httptest.NewServer(env.srv.Handler())
	defer ts.Close()

	get := func(path string, want int) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("GET %s: status %d, want %d", path, resp.StatusCode, want)
		}
	}
	get(env.regionPath(""), 200)               // raw/ok
	get(env.regionPath("&format=planes"), 200) // planes/ok

	// A byte budget between the coarsest and requested plan sizes forces
	// planes/degraded; the raw request's fixed size (48³ float64, far over
	// any plan) cannot degrade, so it lands in raw/rejected.
	lo, hi := []int{8, 8, 8}, []int{56, 56, 56}
	planBytes := func(bound float64) int64 {
		t.Helper()
		rp, err := env.st.PlanRegion("density", lo, hi, bound, 0)
		if err != nil {
			t.Fatal(err)
		}
		n, err := planTotal(rp, len(lo))
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	full := planBytes(64 * env.eb)
	minimal := planBytes(env.eb * math.Pow(2, 50))
	if minimal >= full {
		t.Fatalf("minimal plan %d >= full plan %d", minimal, full)
	}
	env.srv.SetAdmission(AdmissionOptions{MaxRequestBytes: minimal + (full-minimal)/4, Degrade: true})
	get(env.regionPath("&format=planes"), 200) // planes/degraded
	get(env.regionPath(""), http.StatusRequestEntityTooLarge)

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

	if !strings.Contains(body, "# TYPE ipcomp_request_seconds histogram") {
		t.Fatalf("metrics missing histogram TYPE line:\n%s", body)
	}
	for _, series := range []string{
		`route="region",format="raw",outcome="ok"`,
		`route="region",format="planes",outcome="ok"`,
		`route="region",format="planes",outcome="degraded"`,
		`route="region",format="raw",outcome="rejected"`,
	} {
		if !strings.Contains(body, `ipcomp_request_seconds_bucket{`+series+`,le="+Inf"} 1`) {
			t.Errorf("missing or wrong +Inf bucket for {%s}:\n%s", series, body)
		}
		if !strings.Contains(body, `ipcomp_request_seconds_count{`+series+`} 1`) {
			t.Errorf("missing count for {%s}", series)
		}
		if !strings.Contains(body, `ipcomp_request_seconds_sum{`+series+`} `) {
			t.Errorf("missing sum for {%s}", series)
		}
	}
	// Never-observed series must be omitted, not zero-filled.
	if strings.Contains(body, `outcome="error"`) {
		t.Errorf("scrape carries an unobserved outcome series:\n%s", body)
	}

	// Cumulative form: bucket values along raw/ok must be non-decreasing
	// and end at the series count.
	last := int64(-1)
	n := 0
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, `ipcomp_request_seconds_bucket{route="region",format="raw",outcome="ok"`) {
			continue
		}
		v, err := strconv.ParseInt(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
		if err != nil {
			t.Fatalf("bucket line %q: %v", line, err)
		}
		if v < last {
			t.Fatalf("bucket counts not cumulative at %q", line)
		}
		last = v
		n++
	}
	if n != len(latencyBuckets)+1 {
		t.Errorf("raw/ok series has %d bucket lines, want %d", n, len(latencyBuckets)+1)
	}
	if last != 1 {
		t.Errorf("final cumulative bucket = %d, want 1", last)
	}

	for _, line := range []string{
		"\nipcomp_admission_queued_total 0\n",
		"\nipcomp_admission_degraded_total 1\n",
		"\nipcomp_admission_rejected_total 1\n",
	} {
		if !strings.Contains(body, line) {
			t.Errorf("admission counter missing or wrong: want %q in scrape:\n%s", strings.TrimSpace(line), body)
		}
	}
}

// TestMetricsCluster pins the per-peer families: after a forwarded
// request the forwarding node's scrape shows a labeled forwards counter
// for the peer that answered, and never a series for itself.
func TestMetricsCluster(t *testing.T) {
	env := newClusterEnv(t, 4, 1, nil) // R=1 so a non-owner must forward
	owner, stranger := env.ownerAndStranger(0)
	resp, err := http.Get(stranger.ts.URL + "/v1/datasets/" + env.datasets[0])
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("forwarded metadata request: HTTP %d", resp.StatusCode)
	}

	mresp, err := http.Get(stranger.ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	body := string(b)
	if !strings.Contains(body, `ipcomp_cluster_forwards_total{peer="`+owner.name+`"} 1`) {
		t.Errorf("forward to %s not counted:\n%s", owner.name, body)
	}
	if strings.Contains(body, `{peer="`+stranger.name+`"}`) {
		t.Errorf("metrics expose a per-peer series for self:\n%s", body)
	}
	if !strings.Contains(body, `ipcomp_cluster_peer_healthy{peer="`+owner.name+`"} 1`) {
		t.Errorf("healthy peer gauge missing:\n%s", body)
	}
}

// TestMetricsCodecFamily pins the per-method codec byte family: after a
// region request has decoded plane blocks, both the Prometheus exposition
// and the /v1/stats JSON carry per-method compressed-byte counters.
func TestMetricsCodecFamily(t *testing.T) {
	env := newTestEnv(t)
	resp, err := http.Get(env.ts.URL + "/v1/datasets/density/region?lo=0,0,0&hi=16,16,16&bound=" + formatFloat(16*env.eb))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	resp, err = http.Get(env.ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	body := string(b)
	if !strings.Contains(body, "# TYPE ipcomp_codec_bytes counter") {
		t.Errorf("metrics missing ipcomp_codec_bytes family:\n%s", body)
	}
	if !strings.Contains(body, `ipcomp_codec_bytes{method="deflate",op="decode"}`) {
		t.Errorf("metrics missing deflate decode series:\n%s", body)
	}

	resp, err = http.Get(env.ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	b, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"codec"`) || !strings.Contains(string(b), `"deflate"`) {
		t.Errorf("/v1/stats missing codec counters: %s", b)
	}
}

// TestRequestSecondsGoldenText pins the exposition text of
// ipcomp_request_seconds byte for byte: the benchmark's scrape keys series
// exactly as /metrics prints them. Durations sit on a bucket's upper bound
// (counted in it), just above one, below the first and beyond the last.
func TestRequestSecondsGoldenText(t *testing.T) {
	srv := New()
	for _, d := range []time.Duration{50 * time.Microsecond, 100 * time.Microsecond, 100001 * time.Nanosecond, 123456789, 11 * time.Second} {
		srv.met.observe(fmtRaw, outOK, d)
	}
	srv.met.observe(fmtPlanes, outDegraded, 2500*time.Microsecond)
	srv.met.observeRoute(routeIngest, outRejected, 3*time.Second)
	srv.met.observeRoute(routeContainer, outError, time.Millisecond)
	var b strings.Builder
	srv.met.render(&b)
	want, err := os.ReadFile("testdata/request_seconds.golden")
	if err != nil {
		t.Fatal(err)
	}
	if b.String() != string(want) {
		t.Fatalf("ipcomp_request_seconds text changed:\n%s", b.String())
	}
}
