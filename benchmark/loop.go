package main

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// round is one request/response of an operation: an HTTP round trip, or
// one call into the client library that makes exactly one. A refine chain
// is one operation of three rounds, each its own latency sample.
type round struct {
	kind  string // sample class: which timing the round belongs to
	start time.Time
	done  time.Time
	bytes int64 // decoded payload
	wire  int64 // response body bytes, where the route reports them
}

// doer runs operation i on worker w and returns the rounds that
// succeeded, stopping at the first that does not (so the first returned
// round is always the operation's first). It takes each round's done timestamp first and only then
// hands the answer to the oracle and the tally, so checking is outside
// every timed interval; a round the oracle rejects is counted as failed
// and returned with no latency sample at all.
type doer func(w, i int) []round

// sample is one successful round as the loops record it. In an open loop
// the first round of an operation is timed from when it was due; wait is
// how long it sat in the generator's queue because every connection was
// busy, and is part of latency.
type sample struct {
	kind    string
	at      float64 // ms since the loop began, at completion
	latency float64 // ms
	service float64 // ms, start → done
	wait    float64 // ms, due → start (open loop, first round only)
	bytes   int64
	wire    int64
}

// spinBefore is how long before an operation is due its worker stops
// sleeping and starts yielding.
const spinBefore = 500 * time.Microsecond

type loopOut struct {
	samples []sample
	elapsed time.Duration
	ops     int
	late    durs // how late the generator fired an operation it was free to fire
}

// values picks one figure out of every sample of a class ("" for all).
func (o *loopOut) values(kind string, pick func(sample) float64) []float64 {
	var out []float64
	for _, s := range o.samples {
		if kind == "" || s.kind == kind {
			out = append(out, pick(s))
		}
	}
	return out
}

func (o *loopOut) latencies(kind string) []float64 {
	return o.values(kind, func(s sample) float64 { return s.latency })
}

func (o *loopOut) services(kind string) []float64 {
	return o.values(kind, func(s sample) float64 { return s.service })
}

// closedLoop has each of clients callers issue its next operation as soon
// as its previous one completes, for d.
func closedLoop(clients int, d time.Duration, do doer) loopOut {
	var out loopOut
	var mu sync.Mutex
	var next atomic.Int64
	begin := time.Now()
	deadline := begin.Add(d)
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				rounds := do(w, i)
				mu.Lock()
				out.ops++
				for _, r := range rounds {
					d := ms(r.done.Sub(r.start))
					out.samples = append(out.samples, sample{kind: r.kind, at: ms(r.done.Sub(begin)), latency: d, service: d, bytes: r.bytes, wire: r.wire})
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	out.elapsed = time.Since(begin)
	return out
}

// openLoop fires operation i at begin+due[i] regardless of how the
// earlier ones fared. workers bounds the connections: an operation that
// finds them all busy waits in arrival order, and that wait counts — its
// latency runs from its due time, not from when it was sent.
func openLoop(workers int, due []time.Duration, do doer) loopOut {
	var out loopOut
	var mu sync.Mutex
	var next atomic.Int64
	begin := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(due) {
					return
				}
				at := begin.Add(due[i])
				idle := false
				if wait := time.Until(at); wait > 0 {
					// The worker was free before the operation was due:
					// whatever it overshoots is the generator's lateness.
					// Sleeping right up to the instant overshoots by a
					// scheduler quantum when both cores are busy, so the
					// last stretch is spent yielding instead.
					idle = true
					if wait > spinBefore {
						time.Sleep(wait - spinBefore)
					}
					for time.Now().Before(at) {
						runtime.Gosched()
					}
				}
				fired := time.Now()
				rounds := do(w, i)
				mu.Lock()
				out.ops++
				if idle {
					out.late.add(fired.Sub(at))
				}
				for k, r := range rounds {
					s := sample{kind: r.kind, at: ms(r.done.Sub(begin)), service: ms(r.done.Sub(r.start)), bytes: r.bytes, wire: r.wire}
					s.latency = s.service
					if k == 0 {
						// The operation's first round: its clock started
						// when it was due, not when it was sent.
						s.latency = ms(r.done.Sub(at))
						s.wait = max(0, ms(r.start.Sub(at)))
					}
					out.samples = append(out.samples, s)
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	out.elapsed = time.Since(begin)
	return out
}
