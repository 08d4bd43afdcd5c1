package backend

import (
	"sync"
	"sync/atomic"
)

// DefaultCachedBytes is the default byte budget of a Cached tier.
const DefaultCachedBytes = 64 << 20

// Cached wraps any Backend with a read-through, byte-budgeted cache —
// the venti idea of layering a block cache in front of a dumb store,
// adapted to ipcomp's access pattern. Container reads are plan-driven
// byte ranges (archive headers, bitplane spans), so the cache is
// span-granular: it keeps exactly the ranges that were read, merged when
// adjacent, and evicts least-recently-touched spans when over budget.
// Concurrent reads of the same missing range coalesce into one origin
// fetch. This is the one place reads are coalesced: every read Cached
// sends to its inner backend goes through fetchShared, including the
// pass-through of a zero budget, so a Cached tier with nothing to cache
// still joins identical in-flight reads.
//
// Locking is per container (warm reads of different containers never
// contend) with a global mutex only around the container/flight maps and
// atomic byte accounting, so warm reads of one container contend only
// with each other.
//
// An edge ipcompd built on Cached(HTTP) serves warm traffic with zero
// origin reads: region plans touch only archive headers (cached after
// first contact) and plane spans (cached from the first request that
// shipped them).
type Cached struct {
	inner  Backend
	budget int64

	gen  atomic.Int64 // recency stamp for span LRU
	held atomic.Int64 // resident bytes across all containers

	mu         sync.Mutex // guards the maps below, never held with a container lock
	containers map[string]*cachedContainer
	flights    map[flightKey]*flight

	hits         atomic.Int64
	misses       atomic.Int64
	bytesFetched atomic.Int64
	coalesced    atomic.Int64
}

// cachedContainer is one container's resident spans, independently
// locked; size is immutable.
type cachedContainer struct {
	size int64

	mu sync.Mutex
	sp *Sparse
}

// NewCached wraps inner with a cache of budgetBytes. A non-positive
// budget disables caching — reads pass through, coalesced but not kept;
// there is no implicit default, so callers wanting one pass
// DefaultCachedBytes themselves.
func NewCached(inner Backend, budgetBytes int64) *Cached {
	return &Cached{
		inner:      inner,
		budget:     budgetBytes,
		containers: make(map[string]*cachedContainer),
		flights:    make(map[flightKey]*flight),
	}
}

// List forwards to the wrapped backend.
func (c *Cached) List() ([]string, error) { return c.inner.List() }

// Size returns the named container's size (probed once, then cached).
func (c *Cached) Size(name string) (int64, error) {
	cc, err := c.container(name)
	if err != nil {
		return 0, err
	}
	return cc.size, nil
}

// container returns (resolving if needed) the per-container cache state.
func (c *Cached) container(name string) (*cachedContainer, error) {
	c.mu.Lock()
	cc, ok := c.containers[name]
	c.mu.Unlock()
	if ok {
		return cc, nil
	}
	size, err := c.inner.Size(name)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if cc, ok := c.containers[name]; ok {
		return cc, nil
	}
	cc = &cachedContainer{sp: NewSparse(size), size: size}
	c.containers[name] = cc
	return cc, nil
}

// ReadAt serves [off, off+len(p)) from resident spans, fetching only the
// missing gaps from the wrapped backend.
func (c *Cached) ReadAt(name string, p []byte, off int64) (int, error) {
	return c.readAt(name, p, off, "")
}

// ReadAtTrace is ReadAt with a request-trace id forwarded to the wrapped
// backend on every origin fetch this read causes (a fully resident read
// touches no origin and propagates nothing).
func (c *Cached) ReadAtTrace(name string, p []byte, off int64, trace string) (int, error) {
	return c.readAt(name, p, off, trace)
}

func (c *Cached) readAt(name string, p []byte, off int64, trace string) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	cc, err := c.container(name)
	if err != nil {
		return 0, err
	}
	if err := checkRange(name, off, int64(len(p)), cc.size); err != nil {
		return 0, err
	}
	// A read at or beyond the whole budget would evict itself while being
	// assembled; bypass the cache entirely (still counted as a miss).
	if c.budget <= 0 || int64(len(p)) >= c.budget {
		return c.passThrough(name, p, off, trace)
	}
	missed := false
	// The fetch-insert-read loop re-checks coverage each round: a span a
	// concurrent reader evicted between our insert and our read is simply
	// re-fetched. Forward progress is guaranteed per round (each fetch
	// inserts bytes the check found missing), and the bypass above keeps a
	// single read from thrashing the whole budget, so a bound on rounds is
	// only a corruption backstop.
	for attempt := 0; ; attempt++ {
		cc.mu.Lock()
		gaps := cc.sp.Missing(off, int64(len(p)))
		if len(gaps) == 0 {
			b, err := cc.sp.ReadRange(off, int64(len(p)), c.gen.Add(1))
			if err != nil {
				cc.mu.Unlock()
				return 0, err
			}
			copy(p, b)
			cc.mu.Unlock()
			if missed {
				c.misses.Add(1)
			} else {
				c.hits.Add(1)
			}
			return len(p), nil
		}
		cc.mu.Unlock()
		if attempt >= 16 {
			// Sustained mutual eviction (working sets of concurrent readers
			// exceeding a tight budget) must degrade to an uncached origin
			// read, not a client-visible error — the origin can always serve
			// what the cache cannot hold.
			return c.passThrough(name, p, off, trace)
		}
		missed = true
		// Fetch the gaps concurrently: a range interleaved with resident
		// spans pays one round-trip, not one per hole (coalescing and the
		// HTTP tier's semaphore already make parallel fetches safe).
		bufs := make([][]byte, len(gaps))
		errs := make([]error, len(gaps))
		if len(gaps) == 1 {
			bufs[0], errs[0] = c.fetchShared(name, gaps[0], trace)
		} else {
			var wg sync.WaitGroup
			for gi, g := range gaps {
				wg.Add(1)
				go func(gi int, g Range) {
					defer wg.Done()
					bufs[gi], errs[gi] = c.fetchShared(name, g, trace)
				}(gi, g)
			}
			wg.Wait()
		}
		for gi := range gaps {
			if errs[gi] != nil {
				return 0, errs[gi]
			}
			c.insert(cc, gaps[gi].Off, bufs[gi])
		}
	}
}

// passThrough reads [off, off+len(p)) from the wrapped backend without
// keeping it, counted as a miss. It still goes through fetchShared, so
// concurrent identical uncached reads share one origin request.
func (c *Cached) passThrough(name string, p []byte, off int64, trace string) (int, error) {
	c.misses.Add(1)
	b, err := c.fetchShared(name, Range{Off: off, Len: int64(len(p))}, trace)
	if err != nil {
		return 0, err
	}
	return copy(p, b), nil
}

// insert adds fetched bytes to a container's spans, maintaining the
// global held total and evicting down to budget. The generation is
// stamped here, under the lock — not before the fetch: a stamp captured
// pre-fetch can be the globally oldest by the time the network round
// trip finishes, and a saturated cache would then self-evict the span it
// just inserted, starving the read. Identical overlapping re-inserts (a
// coalesced fetch landing twice) merge cleanly; a mismatch means origin
// corruption, and dropping the insert leaves the next read to surface
// the fetch error path.
func (c *Cached) insert(cc *cachedContainer, off int64, b []byte) {
	cc.mu.Lock()
	before := cc.sp.Held()
	err := cc.sp.Insert(off, b, c.gen.Add(1))
	delta := cc.sp.Held() - before
	cc.mu.Unlock()
	if err != nil {
		return
	}
	if c.held.Add(delta) > c.budget {
		c.evict()
	}
}

// evict walks containers, dropping least-recently-touched spans until
// the budget holds with an extra 1/8 of headroom — each recency scan is
// O(resident spans), so freeing a batch per pass amortizes the scans
// across many inserts instead of paying one on every miss at saturation.
// It takes each container's lock briefly and never the global map lock
// at the same time; concurrent evictors make independent progress, and
// the recency scan is an approximation by design (a span touched between
// scan and evict just gets re-fetched).
func (c *Cached) evict() {
	target := c.budget - c.budget/8
	for {
		over := c.held.Load() - target
		if over <= 0 {
			return
		}
		victim := c.oldestContainer()
		if victim == nil {
			return
		}
		// EvictUpTo frees the whole overage from the victim in one sorted
		// pass; if the victim holds less than that, the loop moves to the
		// next-coldest container. Freeing by batch from the container with
		// the oldest span is a coarser LRU than span-by-span across
		// containers, traded for O(n log n) per saturation episode instead
		// of O(n) scans per span.
		victim.mu.Lock()
		freed := victim.sp.EvictUpTo(over)
		victim.mu.Unlock()
		if freed == 0 {
			return
		}
		c.held.Add(-freed)
	}
}

// oldestContainer picks the container holding the least-recently-touched
// span.
func (c *Cached) oldestContainer() *cachedContainer {
	c.mu.Lock()
	ccs := make([]*cachedContainer, 0, len(c.containers))
	for _, cc := range c.containers {
		ccs = append(ccs, cc)
	}
	c.mu.Unlock()
	var victim *cachedContainer
	var oldest int64
	for _, cc := range ccs {
		cc.mu.Lock()
		g, ok := cc.sp.OldestGen()
		cc.mu.Unlock()
		if ok && (victim == nil || g < oldest) {
			victim, oldest = cc, g
		}
	}
	return victim
}

// flightKey identifies one coalescable origin read.
type flightKey struct {
	name string
	off  int64
	n    int
}

// flight is one in-flight origin read; concurrent identical reads wait on
// done and share b.
type flight struct {
	done chan struct{}
	b    []byte
	err  error
}

// fetchShared reads one range from the wrapped backend, coalescing
// concurrent identical fetches into a single origin read. trace (may be
// "") is forwarded to the origin on the fetch this call initiates;
// joiners inherit the initiating fetch's attribution. Joiners share the
// returned slice and must not write to it.
func (c *Cached) fetchShared(name string, g Range, trace string) ([]byte, error) {
	key := flightKey{name: name, off: g.Off, n: int(g.Len)}
	c.mu.Lock()
	if fl, ok := c.flights[key]; ok {
		c.mu.Unlock()
		c.coalesced.Add(1)
		<-fl.done
		return fl.b, fl.err
	}
	fl := &flight{done: make(chan struct{})}
	c.flights[key] = fl
	c.mu.Unlock()

	buf := make([]byte, g.Len)
	if _, fl.err = ReadAtTrace(c.inner, name, buf, g.Off, trace); fl.err == nil {
		c.bytesFetched.Add(g.Len)
		fl.b = buf
	}
	c.mu.Lock()
	delete(c.flights, key)
	c.mu.Unlock()
	close(fl.done)
	return fl.b, fl.err
}

// Held reports the resident cache bytes.
func (c *Cached) Held() int64 { return c.held.Load() }

// Counters reports the tier's instrumentation. BytesFetched counts this
// tier's own origin reads, so wrapping a counting backend does not
// double-count.
func (c *Cached) Counters() Counters {
	return Counters{
		Hits:         c.hits.Load(),
		Misses:       c.misses.Load(),
		BytesFetched: c.bytesFetched.Load(),
		Coalesced:    c.coalesced.Load(),
	}
}

// Close closes the wrapped backend.
func (c *Cached) Close() error { return Close(c.inner) }
