package backend

import (
	"sync"
	"sync/atomic"
)

// Cached is the tier a remote backend is read through. It caches
// containers' sizes, so a remote container is probed once, and joins
// concurrent identical reads into one: a read that asks for exactly the
// range another read is already fetching waits for that fetch and shares
// its bytes. It keeps no bytes once a read is answered — the store above
// it does, in its tile cache, which keeps what each tile has read (the
// venti idea of one block cache in front of a dumb store).
//
// An edge ipcompd is a store opened on Cached(HTTP): concurrent cold
// requests for one tile cost the origin one read per range, and warm
// traffic is served from the tile cache with no origin read at all.
type Cached struct {
	inner Backend

	mu      sync.Mutex // guards the maps below
	sizes   map[string]int64
	flights map[flightKey]*flight

	bytesFetched atomic.Int64
	coalesced    atomic.Int64
}

// NewCached wraps inner.
func NewCached(inner Backend) *Cached {
	return &Cached{
		inner:   inner,
		sizes:   make(map[string]int64),
		flights: make(map[flightKey]*flight),
	}
}

// List forwards to the wrapped backend.
func (c *Cached) List() ([]string, error) { return c.inner.List() }

// Size returns the named container's size (probed once, then remembered).
func (c *Cached) Size(name string) (int64, error) {
	c.mu.Lock()
	size, ok := c.sizes[name]
	c.mu.Unlock()
	if ok {
		return size, nil
	}
	size, err := c.inner.Size(name)
	if err != nil {
		return 0, err
	}
	c.mu.Lock()
	c.sizes[name] = size
	c.mu.Unlock()
	return size, nil
}

// ReadAt fills p from the wrapped backend, joining an identical read in
// flight.
func (c *Cached) ReadAt(name string, p []byte, off int64) (int, error) {
	return c.ReadAtTrace(name, p, off, "")
}

// ReadAtTrace is ReadAt with a request-trace id forwarded to the wrapped
// backend on the fetch this read initiates; a read that joins another's
// fetch inherits that fetch's attribution.
func (c *Cached) ReadAtTrace(name string, p []byte, off int64, trace string) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	size, err := c.Size(name)
	if err != nil {
		return 0, err
	}
	if err := checkRange(name, off, int64(len(p)), size); err != nil {
		return 0, err
	}
	b, err := c.fetchShared(name, Range{Off: off, Len: int64(len(p))}, trace)
	if err != nil {
		return 0, err
	}
	return copy(p, b), nil
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

// Counters reports the tier's instrumentation. BytesFetched counts this
// tier's own origin reads, so wrapping a counting backend does not
// double-count.
func (c *Cached) Counters() Counters {
	return Counters{
		BytesFetched: c.bytesFetched.Load(),
		Coalesced:    c.coalesced.Load(),
	}
}

// Close closes the wrapped backend.
func (c *Cached) Close() error { return Close(c.inner) }
