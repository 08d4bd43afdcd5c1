package store

import (
	"container/list"
	"sync"
	"sync/atomic"

	"repro/internal/backend"
	"repro/internal/cas"
	"repro/internal/core"
)

// DefaultCacheBytes bounds the decoded-tile LRU cache: repeated or
// overlapping region queries reuse (and progressively refine) decoded
// tiles instead of re-reading and re-decoding them. It is the budget of
// the private cache a Store is opened with and of a server's shared one.
const DefaultCacheBytes = 256 << 20

// cachedBytesPerElem is what one cached element is charged against the
// budget at admission, before its decode: the decoded values (8 or 4
// B/elem by scalar width) and at most 4 B/elem of decoded planes, a bit
// for each of a value's stored planes — its whole refinement state — so
// 12 B/elem, 8 for float32 tiles. Once the tile is decoded, settle sets
// the charge to what its result retains (core.Result.RetainedBytes): the
// values and its decoded planes, or the values alone at full fidelity.
func cachedBytesPerElem(s core.ScalarType) int64 { return int64(s.Bytes()) + 4 }

// tileKey identifies a decoded tile by what it is, so that one TileCache
// can serve every store of a process. A tile of a CAS snapshot is its
// blob: the key is the blob's score alone, and every snapshot (of any
// field) that references the blob shares one decode of it. A tile of a
// packed container has no content address, so it is keyed by where it
// sits: the Store that opened the container, the dataset, the chunk — two
// containers that both hold a dataset named "density" never meet.
type tileKey struct {
	score   cas.Score // content-keyed tiles; the other fields stay zero
	owner   uint64    // packed containers: the opening Store's id, never 0
	dataset string
	chunk   int
}

// chunkEntry holds one tile's parsed archive and decoded result.
//
// Lifecycle under entry.mu (an RWMutex):
//   - res starts nil and is populated under the write lock by the first
//     retrieval; concurrent requests for the same tile block on the lock
//     and find the decode already done — N requests, one decode.
//   - Later queries at tighter bounds refine res in place (loading only
//     additional bitplanes) under the write lock, so the cache
//     monotonically gains fidelity per tile.
//   - Warm queries copy their overlap out under the read lock, so any
//     number of requests stream the same hot tile concurrently.
//   - Eviction takes res back to nil under the write lock, if it can get
//     the lock without waiting (recycle); a goroutine that still holds
//     the entry then decodes it afresh, as on first touch.
//
// arch caches the parsed archive header (tiny: it is read to plan wire
// responses even when nothing is decoded). It is an atomic pointer, set
// once, so the wire-planning path can read it without touching mu at all
// — a planes request must never queue behind a concurrent raw request's
// multi-millisecond decode. counted tracks how many of res's loaded
// bytes have already been attributed to some query's I/O accounting; it
// is atomic so read-locked fast paths can claim deltas without upgrading
// the lock.
type chunkEntry struct {
	key     tileKey
	charged int64 // bytes charged against the cache budget
	private bool  // made by a disabled cache for one retrieval, never shared

	arch atomic.Pointer[core.Archive]

	mu      sync.RWMutex
	res     *core.Result
	counted atomic.Int64
}

// claimLoaded returns the result bytes not yet attributed to any query
// and marks them attributed. Callers hold entry.mu in either mode (res's
// LoadedBytes cannot advance while any lock is held; the atomic swap
// arbitrates between concurrent read-locked claimants).
func (e *chunkEntry) claimLoaded() int64 {
	n := e.res.LoadedBytes()
	return n - e.counted.Swap(n)
}

// Stats counts tile-level cache events since the store was opened, for
// serving metrics and for tests asserting single-decode behavior.
type Stats struct {
	// TileDecodes is the number of cold fills: tile archives decoded from
	// container bytes because no cached result existed.
	TileDecodes int64
	// TileRefines is the number of cached tiles raised to a tighter bound
	// in place (loading only their missing bitplanes).
	TileRefines int64
	// TileHits is the number of per-tile queries served entirely from the
	// cache, with no container I/O.
	TileHits int64
	// Backend is the storage backend's byte-level counters (span-cache
	// hits/misses, origin bytes fetched, coalesced reads); zero for stores
	// opened on a plain io.ReaderAt or a counter-less backend.
	Backend backend.Counters
}

// cacheStats is the atomic backing of Stats.
type cacheStats struct {
	decodes atomic.Int64
	refines atomic.Int64
	hits    atomic.Int64
}

func (c *cacheStats) snapshot() Stats {
	return Stats{
		TileDecodes: c.decodes.Load(),
		TileRefines: c.refines.Load(),
		TileHits:    c.hits.Load(),
	}
}

// TileCache is a byte-budgeted LRU over decoded tiles, under one lock.
// One cache can back any number of stores: a process that serves many
// containers and snapshots attaches one to all of them
// (Store.SetTileCache), and its budget then bounds the decoded tiles of
// the whole process — resident bytes stay within the budget plus one tile
// however many stores there are. Entries are charged their decoded size up
// front, at admission: a bound on the decoded size is known from the
// tiling before any work happens, and charging early keeps concurrent
// fills from overshooting the budget. After every decode and refine the
// charge becomes what the tile's result retains (settle): its values and
// decoded planes, its values alone at full fidelity. An evicted entry
// leaves the map and, unless a goroutine holds it locked at that moment,
// gives its decoded values and planes to the next cold decode (recycle),
// so a cache that evicts as fast as it admits decodes into the memory it
// evicts instead of allocating a tile's worth per admission. A locked victim is left to the
// garbage collector once its holder lets go. The lock guards map and list
// operations only; decodes run under each entry's own lock.
type TileCache struct {
	mu        sync.Mutex
	cap       int64
	used      int64
	evictions int64
	ll        *list.List // front = most recently used; values are *chunkEntry
	entries   map[tileKey]*list.Element
}

// NewTileCache returns a cache with the given byte budget; a non-positive
// budget disables caching (see Resize).
func NewTileCache(capBytes int64) *TileCache {
	return &TileCache{cap: capBytes, ll: list.New(), entries: make(map[tileKey]*list.Element)}
}

// evictTo drops entries from the LRU end until the cache is within its
// budget or only keep entries remain, and returns them appended to
// victims. Callers hold c.mu, and pass the victims to recycle once they
// have let go of it.
func (c *TileCache) evictTo(keep int, victims []*chunkEntry) []*chunkEntry {
	for c.used > c.cap && c.ll.Len() > keep {
		el := c.ll.Back()
		victim := el.Value.(*chunkEntry)
		c.ll.Remove(el)
		delete(c.entries, victim.key)
		c.used -= victim.charged
		c.evictions++
		victims = append(victims, victim)
	}
	return victims
}

// recycle hands the decoded results of evicted entries to later cold
// decodes (core.Result.Release). An entry that some goroutine holds
// locked — decoding, refining or copying out of it — is left to the
// garbage collector, so eviction never waits on a decode. One it can lock
// loses its result: a goroutine still holding a pointer to the entry
// finds res nil under the lock and decodes afresh.
func recycle(victims []*chunkEntry) {
	for _, e := range victims {
		if !e.mu.TryLock() {
			continue
		}
		res := e.res
		e.res = nil
		e.counted.Store(0)
		e.mu.Unlock()
		if res != nil {
			res.Release()
		}
	}
}

// acquire returns the entry for key, creating (and admitting) it if
// needed. With a non-positive capacity, caching is disabled and every call
// returns a fresh private entry, which its retrieval releases once it has
// copied out of it.
func (c *TileCache) acquire(key tileKey, decodedBytes int64) *chunkEntry {
	c.mu.Lock()
	if c.cap <= 0 {
		c.mu.Unlock()
		return &chunkEntry{key: key, charged: decodedBytes, private: true}
	}
	if el, ok := c.entries[key]; ok {
		c.ll.MoveToFront(el)
		c.mu.Unlock()
		return el.Value.(*chunkEntry)
	}
	e := &chunkEntry{key: key, charged: decodedBytes}
	c.entries[key] = c.ll.PushFront(e)
	c.used += e.charged
	// Evict from the LRU end, but never the entry just admitted: a tile
	// bigger than the whole budget must still be cached, or concurrent
	// requests for it would each decode their own copy and the
	// single-decode guarantee would silently vanish for large tiles. The
	// budget is therefore soft by at most that one resident tile.
	var buf [2]*chunkEntry
	victims := c.evictTo(1, buf[:0])
	c.mu.Unlock()
	recycle(victims)
	return e
}

// settle sets e's charge to retained, the bytes its result keeps alive.
// That is below the admission charge as a rule, and above it only when
// the result's backings came from the scratch pools larger than what they
// hold (less than twice); the next admission evicts down to the budget.
// An entry the cache no longer holds is left alone: nothing counts its
// charge any more.
func (c *TileCache) settle(e *chunkEntry, retained int64) {
	c.mu.Lock()
	if el, ok := c.entries[e.key]; ok && el.Value == e {
		c.used += retained - e.charged
		e.charged = retained
	}
	c.mu.Unlock()
}

// peek returns the cached entry for key, or nil without admitting one.
// Header-only consumers (wire planning) use it so the budget is never
// charged a full decoded-tile size for an entry that holds no decode.
func (c *TileCache) peek(key tileKey) *chunkEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.ll.MoveToFront(el)
		return el.Value.(*chunkEntry)
	}
	return nil
}

// Resize updates the byte budget, evicting down to it. A non-positive
// budget clears the cache and disables it.
func (c *TileCache) Resize(capBytes int64) {
	c.mu.Lock()
	c.cap = capBytes
	victims := c.evictTo(0, nil) // every entry is charged > 0, so a budget <= 0 empties the cache
	c.mu.Unlock()
	recycle(victims)
}

// TileCacheStats is a snapshot of a cache's occupancy.
type TileCacheStats struct {
	// Bytes is what the resident entries are charged against the budget
	// (a bound on their decoded size, set at admission and lowered to what
	// each tile's result retains once it is decoded); Entries how many
	// there are.
	Bytes   int64
	Entries int64
	// Evictions counts entries dropped to honour the budget since the cache
	// was made, by admission pressure or by Resize.
	Evictions int64
}

// Stats returns the cache's occupancy, read under its lock.
func (c *TileCache) Stats() TileCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return TileCacheStats{Bytes: c.used, Entries: int64(c.ll.Len()), Evictions: c.evictions}
}
