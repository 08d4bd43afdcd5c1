package server

import (
	"net/http"
	"strings"
	"time"

	"repro/internal/obs"
)

// latencyBuckets are the fixed upper bounds (seconds) of the request
// latency histogram, log-spaced from 100µs to 10s — wide enough to hold
// both a warm cache hit and a queued cold decode.
var latencyBuckets = [...]float64{
	1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2,
	1e-1, 2.5e-1, 5e-1, 1, 2.5, 5, 10,
}

// Request label dimensions. Every API route is instrumented: region
// carries the extra format label (raw vs planes change the work by orders
// of magnitude); the rest — ingest, the two listings, dataset metadata,
// and the raw-container re-export an edge proxy reads through — are
// plain per-outcome series, so origin traffic from edge nodes shows up
// in ipcomp_request_seconds too.
const (
	fmtRaw = iota
	fmtPlanes
	numFormats
)

const (
	routeRegion = iota
	routeIngest
	routeList       // GET /v1/datasets
	routeMeta       // GET /v1/datasets/{name}
	routeContainers // GET /v1/containers
	routeContainer  // GET /v1/containers/{name} (raw re-export)
	numRoutes
)

const (
	outOK = iota
	outDegraded
	outRejected // 429 or 413 from admission
	outError    // any other non-2xx
	numOutcomes
)

var formatNames = [numFormats]string{"raw", "planes"}
var routeNames = [numRoutes]string{"region", "ingest", "list", "meta", "containers", "container"}
var outcomeNames = [numOutcomes]string{"ok", "degraded", "rejected", "error"}

// requestMetrics is the per-server request instrumentation: one histogram
// per (format, outcome) pair for the region read path, one per outcome
// for every other route (the region slot of plain is unused — region
// always carries its format label).
type requestMetrics struct {
	region [numFormats][numOutcomes]*obs.Histogram
	plain  [numRoutes][numOutcomes]*obs.Histogram
}

func newRequestMetrics() requestMetrics {
	var m requestMetrics
	for o := 0; o < numOutcomes; o++ {
		for f := range m.region {
			m.region[f][o] = obs.NewHistogram(latencyBuckets[:])
		}
		for rt := range m.plain {
			m.plain[rt][o] = obs.NewHistogram(latencyBuckets[:])
		}
	}
	return m
}

func (m *requestMetrics) observe(format, outcome int, d time.Duration) {
	m.region[format][outcome].Observe(d)
}

func (m *requestMetrics) observeRoute(route, outcome int, d time.Duration) {
	m.plain[route][outcome].Observe(d)
}

// render writes the ipcomp_request_seconds family in exposition format.
func (m *requestMetrics) render(b *strings.Builder) {
	const family = "ipcomp_request_seconds"
	b.WriteString("# HELP " + family + " Request latency by route, response format, and outcome.\n")
	b.WriteString("# TYPE " + family + " histogram\n")
	for f := 0; f < numFormats; f++ {
		for o := 0; o < numOutcomes; o++ {
			m.region[f][o].Render(b, family, `route="region",format="`+formatNames[f]+`",outcome="`+outcomeNames[o]+`"`)
		}
	}
	for rt := 0; rt < numRoutes; rt++ {
		if rt == routeRegion {
			continue // emitted above with its format label
		}
		for o := 0; o < numOutcomes; o++ {
			m.plain[rt][o].Render(b, family, `route="`+routeNames[rt]+`",outcome="`+outcomeNames[o]+`"`)
		}
	}
}

// statusWriter captures the response status so a generic handler's
// latency can be bucketed by outcome after the fact.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (sw *statusWriter) WriteHeader(code int) {
	if sw.status == 0 {
		sw.status = code
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(p []byte) (int, error) {
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	return sw.ResponseWriter.Write(p)
}

// timed wraps a handler so its latency lands in ipcomp_request_seconds
// under the given route, with the outcome derived from the status code.
// The region and ingest handlers keep their own explicit instrumentation
// (they distinguish degraded responses, which no status code carries).
func (srv *Server) timed(route int, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w}
		h(sw, r)
		outcome := outOK
		switch {
		case sw.status == http.StatusTooManyRequests || sw.status == http.StatusRequestEntityTooLarge:
			outcome = outRejected
		case sw.status >= 400:
			outcome = outError
		}
		srv.met.observeRoute(route, outcome, time.Since(start))
	}
}
