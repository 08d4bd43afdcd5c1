package store

import (
	"container/list"
	"errors"
	"fmt"
	"io"
	"slices"
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

// chunkEntry holds one tile in one of two states: its compressed bytes —
// the archive header and whatever blocks have been read — or those bytes
// and the tile's decode.
//
// Every read of the tile goes through the entry (read): the header parse,
// the block reads of a decode or refine, and the span reads of a planes
// response. What it reads it keeps in bytes, under bmu, a small lock of
// its own that is never held with mu, so planning and span reads never
// wait behind a decode. Resident bytes are never rewritten, so a reader
// may use what read returned after bmu is released.
//
// The decode's lifecycle is under mu (an RWMutex):
//   - res starts nil and is populated under the write lock by the first
//     retrieval; concurrent requests for the same tile block on the lock
//     and find the decode already done — N requests, one decode.
//   - Later queries at tighter bounds refine res in place (loading only
//     additional bitplanes) under the write lock, so the cache
//     monotonically gains fidelity per tile.
//   - Warm queries copy their overlap out under the read lock, so any
//     number of requests stream the same hot tile concurrently.
//   - Eviction takes res back to nil under the write lock, if it can get
//     the lock without waiting (the entry is demoted and keeps its
//     bytes); a goroutine that still holds the entry then decodes it
//     afresh, from the bytes it holds.
//
// arch caches the parsed archive header, read through the entry. It is an
// atomic pointer, set once, so the wire-planning path can read it without
// touching mu at all. counted tracks how many of res's loaded bytes have
// already been attributed to some query's I/O accounting; it is atomic so
// read-locked fast paths can claim deltas without upgrading the lock.
type chunkEntry struct {
	key     tileKey
	cache   *TileCache
	private bool // made by a disabled cache for one retrieval, never shared
	blob    tileBlob

	// The entry's charge against the budget, guarded by cache.mu (charge):
	// held for its compressed bytes, dec for its decode — what the result
	// retains, 0 without one, or while pending an estimate made before the
	// decode starts.
	held, dec int64
	pending   bool

	bmu   sync.Mutex
	bytes *backend.Sparse

	arch atomic.Pointer[core.Archive]

	mu      sync.RWMutex
	res     *core.Result
	counted atomic.Int64
}

// charge is what e is charged against the budget: its compressed bytes
// and its decode. While the decode is pending its estimate, a bound on
// the decoded size from the tiling (cachedBytesPerElem), covers the bytes
// the decode reads too, so a fill is charged what it was at admission
// until it settles. Callers hold cache.mu.
func (e *chunkEntry) charge() int64 {
	if e.pending {
		return max(e.held, e.dec)
	}
	return e.held + e.dec
}

// tileBlob locates a tile's archive: size bytes at off of r, which is the
// container, or the tile's CAS blob.
type tileBlob struct {
	r         io.ReaderAt
	off, size int64
}

// traceReaderAt is a source that can attach a request-trace id to a read
// (backend.Container over a tier that propagates it to an HTTP origin).
type traceReaderAt interface {
	ReadAtTrace(p []byte, off int64, trace string) (int, error)
}

// readAt fills p from the blob at off, with trace attached when the
// source supports it.
func (b tileBlob) readAt(p []byte, off int64, trace string) error {
	var err error
	if tr, ok := b.r.(traceReaderAt); ok && trace != "" {
		_, err = tr.ReadAtTrace(p, b.off+off, trace)
	} else {
		_, err = b.r.ReadAt(p, b.off+off)
	}
	return err
}

// readGaps reads every gap at once, so that a range interleaved with
// resident bytes costs an origin one round trip, not one per gap.
func (b tileBlob) readGaps(gaps []backend.Range, trace string) ([][]byte, error) {
	bufs := make([][]byte, len(gaps))
	errs := make([]error, len(gaps))
	var wg sync.WaitGroup
	for i, g := range gaps {
		bufs[i] = sizedBuf(g.Len)
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = b.readAt(bufs[i], g.Off, trace)
		}()
	}
	wg.Wait()
	return bufs, errors.Join(errs...)
}

// sizedBuf returns n bytes on a whole size-class backing, so that what a
// Sparse holds (Held) is what its backings occupy.
func sizedBuf(n int64) []byte { return slices.Grow([]byte(nil), int(n))[:n] }

// read returns the bytes [off, off+n) of the tile's archive: from the
// entry's resident bytes when they hold the range, otherwise fetched from
// the source (with trace attached) and kept, the entry's charge growing by
// what it now holds. The slice must not be written to.
func (e *chunkEntry) read(off, n int64, trace string) ([]byte, error) {
	// Subtraction, not off+n: crafted offsets near 2^63 must not overflow
	// past the check.
	if off < 0 || n < 0 || off > e.blob.size || n > e.blob.size-off {
		return nil, fmt.Errorf("store: read [%d,%d) outside a tile archive of %d bytes", off, off+n, e.blob.size)
	}
	e.bmu.Lock()
	gaps := e.bytes.Missing(off, n)
	if len(gaps) == 0 {
		before := e.bytes.Held()
		b, err := e.bytes.ReadRange(off, n)
		held := e.bytes.Held()
		e.bmu.Unlock()
		e.cache.readHits.Add(1)
		if held != before { // ReadRange merged spans onto a new backing
			e.cache.grow(e, held)
		}
		return b, err
	}
	e.bmu.Unlock()
	e.cache.readMisses.Add(1)
	var one [1][]byte
	bufs := one[:]
	var err error
	if len(gaps) == 1 {
		bufs[0] = sizedBuf(gaps[0].Len)
		err = e.blob.readAt(bufs[0], gaps[0].Off, trace)
	} else {
		bufs, err = e.blob.readGaps(gaps, trace)
	}
	if err != nil {
		return nil, err
	}
	e.bmu.Lock()
	for i, g := range gaps {
		if err = e.bytes.Insert(g.Off, bufs[i]); err != nil {
			break
		}
	}
	held := e.bytes.Held()
	var b []byte
	if err == nil {
		b, err = e.bytes.ReadRange(off, n)
	}
	e.bmu.Unlock()
	e.cache.grow(e, held)
	return b, err
}

// ReadRange makes the entry the archive's core.BlockSource, so a decode
// reads its blocks through it.
func (e *chunkEntry) ReadRange(off int64, n int) ([]byte, error) { return e.read(off, int64(n), "") }

// Size is the archive's size, for core.BlockSource.
func (e *chunkEntry) Size() int64 { return e.blob.size }

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
	// ReadHits counts reads of tile bytes served from the tile cache's
	// resident compressed bytes, ReadMisses those that needed a fetch from
	// the container's source. They are the tile cache's counts: stores
	// sharing one cache report the same values.
	ReadHits, ReadMisses int64
	// Backend is the storage backend's byte-level counters (origin bytes
	// fetched, coalesced reads); zero for stores opened on a plain
	// io.ReaderAt or a counter-less backend.
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

// TileCache is a byte-budgeted LRU over tiles, under one lock. One cache
// can back any number of stores: a process that serves many containers
// and snapshots attaches one to all of them (Store.SetTileCache), and its
// budget then bounds the tiles of the whole process — resident bytes stay
// within the budget plus one tile however many stores there are.
//
// An entry is charged what it holds: its compressed bytes, which grow as
// reads go through it, plus its decode, what the result retains (settle).
// Before a decode starts it is charged a bound on the decoded size from
// the tiling, which covers the bytes the decode reads too, so that
// concurrent fills cannot overshoot the budget (chunkEntry.charge). Every
// time a charge grows the entry becomes the most recent and the cache
// evicts back to its budget. Eviction demotes before it drops: a victim
// with a decode that it can lock without waiting gives the decode up — to
// the next cold decode (core.Result.Release), so a cache that evicts as
// fast as it admits decodes into the memory it evicts — and keeps its
// compressed bytes; a victim with bytes only, or one some goroutine holds
// locked, leaves the cache, a locked decode being left to the garbage
// collector once its holder lets go. The lock guards map, list and
// charges only; decodes run under each entry's own lock.
type TileCache struct {
	mu        sync.Mutex
	cap       int64
	used      int64
	evictions int64
	ll        *list.List // front = most recently used; values are *chunkEntry
	entries   map[tileKey]*list.Element

	readHits, readMisses atomic.Int64
}

// NewTileCache returns a cache with the given byte budget; a non-positive
// budget disables caching (see Resize).
func NewTileCache(capBytes int64) *TileCache {
	return &TileCache{cap: capBytes, ll: list.New(), entries: make(map[tileKey]*list.Element)}
}

// evictTo works from the LRU end until the cache is within its budget
// (empty, for a budget <= 0, which disables it) or only keep entries
// remain: a victim with a decode and compressed bytes, whose lock it can
// take without waiting, is demoted to its bytes; anything else leaves.
// It returns the decodes given up appended to freed. Callers hold c.mu,
// and Release what it returns once they have let go of it.
func (c *TileCache) evictTo(keep int, freed []*core.Result) []*core.Result {
	for (c.used > c.cap || c.cap <= 0) && c.ll.Len() > keep {
		el := c.ll.Back()
		e := el.Value.(*chunkEntry)
		if e.dec > 0 && e.held > 0 && e.mu.TryLock() {
			if e.res != nil {
				freed = append(freed, e.res)
			}
			e.res = nil
			e.counted.Store(0)
			e.mu.Unlock()
			c.used -= e.charge() - e.held
			e.dec, e.pending = 0, false
			continue
		}
		c.ll.Remove(el)
		delete(c.entries, e.key)
		c.used -= e.charge()
		c.evictions++
	}
	return freed
}

// release hands the decodes eviction took to later cold decodes.
func release(freed []*core.Result) {
	for _, res := range freed {
		res.Release()
	}
}

// acquire returns the entry for key, creating (and admitting) it if
// needed; blob is where the tile's bytes are read from. decoded is what
// the caller is about to decode charged in advance (0 for a caller that
// only reads bytes): an entry that holds no decode and none charged is
// charged it now, and the cache evicts back to its budget. With a
// non-positive capacity, caching is disabled and every call returns a
// fresh private entry, which its retrieval releases once it has copied
// out of it.
func (c *TileCache) acquire(key tileKey, blob tileBlob, decoded int64) *chunkEntry {
	c.mu.Lock()
	if c.cap <= 0 {
		c.mu.Unlock()
		return c.newEntry(key, blob, true)
	}
	var e *chunkEntry
	if el, ok := c.entries[key]; ok {
		c.ll.MoveToFront(el)
		e = el.Value.(*chunkEntry)
	} else {
		e = c.newEntry(key, blob, false)
		c.entries[key] = c.ll.PushFront(e)
	}
	if e.dec == 0 && decoded > 0 {
		c.used -= e.charge()
		e.dec, e.pending = decoded, true
		c.used += e.charge()
	}
	// Evict from the LRU end, but never the entry just touched: a tile
	// bigger than the whole budget must still be cached, or concurrent
	// requests for it would each decode their own copy and the
	// single-decode guarantee would silently vanish for large tiles. The
	// budget is therefore soft by at most that one resident tile.
	var buf [2]*core.Result
	freed := c.evictTo(1, buf[:0])
	c.mu.Unlock()
	release(freed)
	return e
}

func (c *TileCache) newEntry(key tileKey, blob tileBlob, private bool) *chunkEntry {
	return &chunkEntry{key: key, cache: c, private: private, blob: blob, bytes: backend.NewSparse(blob.size)}
}

// recharge sets e's charge by set, makes e the most recent entry and
// evicts back to the budget, keeping e. An entry the cache no longer
// holds is left alone: nothing counts its charge any more.
func (c *TileCache) recharge(e *chunkEntry, set func(e *chunkEntry)) {
	c.mu.Lock()
	el, ok := c.entries[e.key]
	if !ok || el.Value != e {
		c.mu.Unlock()
		return
	}
	c.used -= e.charge()
	set(e)
	c.used += e.charge()
	c.ll.MoveToFront(el)
	var buf [2]*core.Result
	freed := c.evictTo(1, buf[:0])
	c.mu.Unlock()
	release(freed)
}

// grow charges e for the held compressed bytes it now keeps. Reads that
// land out of order never lower the charge: bytes are only ever added.
func (c *TileCache) grow(e *chunkEntry, held int64) {
	c.recharge(e, func(e *chunkEntry) { e.held = max(e.held, held) })
}

// settle charges e's decode at retained, the bytes its result keeps
// alive, after every decode and refine (a private entry is left alone, as
// recharge leaves any entry the cache does not hold). That is below the admission
// charge as a rule, and above it only when the result's backings came
// from the scratch pools larger than what they hold (less than twice).
func (c *TileCache) settle(e *chunkEntry, retained int64) {
	c.recharge(e, func(e *chunkEntry) { e.dec, e.pending = retained, false })
}

// peek returns the cached entry for key, or nil without admitting one.
// The warm sweep of a retrieval uses it, so that a retrieval the admission
// gate refuses charges and evicts nothing.
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
	freed := c.evictTo(0, nil)
	c.mu.Unlock()
	release(freed)
}

// TileCacheStats is a snapshot of a cache's occupancy.
type TileCacheStats struct {
	// Bytes is what the resident entries are charged against the budget:
	// their compressed bytes, plus for each decoded tile what its result
	// retains (a bound on its decoded size while it decodes); Entries how
	// many there are.
	Bytes   int64
	Entries int64
	// Evictions counts entries dropped to honour the budget since the cache
	// was made, by admission pressure or by Resize. A decoded entry that
	// gives up only its decode stays, and is not counted.
	Evictions int64
	// ReadHits counts reads of tile bytes served from an entry's resident
	// bytes; ReadMisses counts those that needed a fetch from the source.
	ReadHits, ReadMisses int64
}

// Stats returns the cache's occupancy, read under its lock.
func (c *TileCache) Stats() TileCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return TileCacheStats{Bytes: c.used, Entries: int64(c.ll.Len()), Evictions: c.evictions,
		ReadHits: c.readHits.Load(), ReadMisses: c.readMisses.Load()}
}
