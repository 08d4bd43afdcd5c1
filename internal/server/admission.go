package server

import (
	"context"
	"errors"
	"sync/atomic"
	"time"
)

// AdmissionOptions bounds the work a node accepts per request so an
// overload (a stampede of cold regions) degrades service smoothly instead
// of collapsing it. The zero value imposes no limits.
type AdmissionOptions struct {
	// MaxDecodeConcurrency caps how many requests may be decoding or
	// refining tiles at once; further cold requests queue for a slot.
	// Requests answered entirely from cached tiles never touch the
	// semaphore — warm traffic is admission-free by construction, which is
	// what keeps a decode stampede from stalling the cache-hit fast path.
	// 0 means unlimited.
	MaxDecodeConcurrency int
	// QueueTimeout is how long a cold request waits for a decode slot
	// before it is degraded (served from whatever fidelity is cached) or,
	// as a last resort, rejected with 429. 0 selects DefaultQueueTimeout.
	QueueTimeout time.Duration
	// MaxRequestBytes caps the response body size. A raw request over the
	// cap is rejected with 413 (its size is fixed by the region, so no
	// retry or degradation can help); a planes request is degraded to the
	// tightest error bound whose wire size fits. 0 means unlimited.
	MaxRequestBytes int64
	// Degrade enables answering over-budget or queue-timed-out requests at
	// a coarser error bound (with the X-Ipcomp-Degraded: true header)
	// instead of failing them. When false, those requests get 429.
	Degrade bool
}

// DefaultQueueTimeout is how long a cold request waits for a decode slot
// by default.
const DefaultQueueTimeout = time.Second

// retryAfterSeconds is the Retry-After hint of every 429: rejected clients
// are told to come back after a second.
const retryAfterSeconds = "1"

// errQueueTimeout aborts a gated retrieval whose wait for a decode slot
// expired; errDecodeDenied aborts one that was not allowed to decode at
// all (the degrade ladder probing for warm fidelities).
var (
	errQueueTimeout = errors.New("server: timed out waiting for a decode slot")
	errDecodeDenied = errors.New("server: retrieval needs decode work")
)

// denyDecode is the store gate of the degrade ladder: any retrieval that
// would decode is refused, so only fully-cached fidelities are served.
func denyDecode() error { return errDecodeDenied }

// admission is the runtime state behind AdmissionOptions.
type admission struct {
	opts  AdmissionOptions
	slots chan struct{} // decode-concurrency semaphore; nil = unlimited

	queued   atomic.Int64 // cold requests that waited for a slot
	degraded atomic.Int64 // requests answered at a coarser bound
	rejected atomic.Int64 // requests answered 429 or 413
}

// SetAdmission installs admission control; call before serving traffic.
func (srv *Server) SetAdmission(opts AdmissionOptions) {
	if opts.QueueTimeout <= 0 {
		opts.QueueTimeout = DefaultQueueTimeout
	}
	srv.adm.opts = opts
	if opts.MaxDecodeConcurrency > 0 {
		srv.adm.slots = make(chan struct{}, opts.MaxDecodeConcurrency)
	} else {
		srv.adm.slots = nil
	}
}

// acquireDecode claims a decode slot, waiting up to QueueTimeout. The
// fast path (a free slot) does not count as queueing.
func (a *admission) acquireDecode(ctx context.Context) error {
	if a.slots == nil {
		return nil
	}
	select {
	case a.slots <- struct{}{}:
		return nil
	default:
	}
	a.queued.Add(1)
	timer := time.NewTimer(a.opts.QueueTimeout)
	defer timer.Stop()
	select {
	case a.slots <- struct{}{}:
		return nil
	case <-timer.C:
		return errQueueTimeout
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (a *admission) releaseDecode() {
	if a.slots != nil {
		<-a.slots
	}
}
