package cluster

import (
	"sync"
	"time"
)

// Health tracks per-peer failure state for the router: a peer that fails
// Threshold consecutive times is ejected from routing for Cooldown, after
// which a single probe request is let through (half-open). A probe
// success fully restores the peer; a probe failure re-ejects it for
// another Cooldown. Success at any point resets the failure count.
//
// Ejection is advisory: the router consults Healthy to *order and prune*
// candidates, but when every replica of a container is ejected it must
// still try them — a wrong "all dead" verdict must degrade to slower
// requests, never to refused ones.
//
// Health is safe for concurrent use.
type Health struct {
	threshold int
	cooldown  time.Duration
	now       func() time.Time

	mu    sync.Mutex
	peers map[string]*peerState
}

type peerState struct {
	failures    int       // consecutive failures
	ejectedAt   time.Time // when the breaker last opened
	ejected     bool
	probing     bool // a half-open probe is in flight
	ejectedEver int64
}

// DefaultThreshold and DefaultCooldown are the router defaults: three
// consecutive failures eject a peer, and it is re-probed after a second.
const (
	DefaultThreshold = 3
	DefaultCooldown  = time.Second
)

// NewHealth creates a tracker. threshold <= 0 selects DefaultThreshold;
// cooldown <= 0 selects DefaultCooldown.
func NewHealth(threshold int, cooldown time.Duration) *Health {
	return newHealthClock(threshold, cooldown, time.Now)
}

// newHealthClock injects the clock for tests.
func newHealthClock(threshold int, cooldown time.Duration, now func() time.Time) *Health {
	if threshold <= 0 {
		threshold = DefaultThreshold
	}
	if cooldown <= 0 {
		cooldown = DefaultCooldown
	}
	return &Health{threshold: threshold, cooldown: cooldown, now: now, peers: make(map[string]*peerState)}
}

func (h *Health) state(peer string) *peerState {
	ps, ok := h.peers[peer]
	if !ok {
		ps = &peerState{}
		h.peers[peer] = ps
	}
	return ps
}

// TryProbe claims the half-open probe for an ejected peer whose cooldown
// has elapsed: it returns true for exactly one caller, which must settle
// the probe via Success or Failure. Routable peers, peers still cooling
// down, and peers with a probe already in flight return false. Routers
// use it to run probes out-of-band (against /healthz) so no live request
// ever pays a known-dead peer's dial.
func (h *Health) TryProbe(peer string) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	ps := h.state(peer)
	if !ps.ejected || ps.probing || h.now().Sub(ps.ejectedAt) < h.cooldown {
		return false
	}
	ps.probing = true
	return true
}

// Success records a successful exchange with peer, closing its breaker.
func (h *Health) Success(peer string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	ps := h.state(peer)
	ps.failures = 0
	ps.ejected = false
	ps.probing = false
}

// Failure records a failed exchange with peer; crossing the threshold
// (or failing a half-open probe) ejects it for a fresh cooldown.
func (h *Health) Failure(peer string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	ps := h.state(peer)
	ps.failures++
	if ps.probing || ps.failures >= h.threshold {
		// A failed half-open probe restarts the cooldown but is not a new
		// ejection event.
		if !ps.ejected {
			ps.ejectedEver++
		}
		ps.ejected = true
		ps.probing = false
		ps.ejectedAt = h.now()
	}
}

// Healthy reports whether peer is currently routable without a probe.
func (h *Health) Healthy(peer string) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	ps, ok := h.peers[peer]
	return !ok || !ps.ejected
}

// PeerHealth is a snapshot of one peer's breaker, for /metrics.
type PeerHealth struct {
	Failures  int   // current consecutive failures
	Ejected   bool  // breaker open right now
	Ejections int64 // lifetime count of threshold crossings
}

// Snapshot returns the breaker state of every peer ever recorded.
func (h *Health) Snapshot() map[string]PeerHealth {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make(map[string]PeerHealth, len(h.peers))
	for name, ps := range h.peers {
		out[name] = PeerHealth{Failures: ps.failures, Ejected: ps.ejected, Ejections: ps.ejectedEver}
	}
	return out
}
