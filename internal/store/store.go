package store

import (
	"errors"
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/obs"
)

// Store reads a chunked container through io.ReaderAt. Opening parses only
// the preamble, footer, and index; chunk bytes are read lazily, and a
// region query reads only the byte ranges that the loading plans of its
// intersecting chunks select — true partial I/O end to end.
//
// A Store is safe for concurrent use by any number of goroutines provided
// the underlying reader's ReadAt is (os.File and bytes.Reader are): the
// dataset index is immutable after Open, the tile cache is one
// mutex-guarded LRU, and per-tile state is guarded by a read-write mutex,
// so concurrent requests for the same tile decode it exactly once while
// warm requests stream it concurrently.
type Store struct {
	src      io.ReaderAt
	size     int64
	datasets map[string]*datasetMeta
	order    []string
	id       uint64            // this store's identity in positional tile keys
	snap     *snapshotReaderAt // non-nil for OpenSnapshot stores: tiles are keyed by score
	cache    *TileCache        // private until SetTileCache attaches a shared one
	shared   bool              // SetTileCache attached cache; SetCacheBytes refuses it
	stats    cacheStats
	counters backend.CounterSource // non-nil for backend-opened stores
}

// storeIDs numbers the stores of a process from 1, so that positional
// tile keys of different containers never collide in a shared cache.
var storeIDs atomic.Uint64

// MinSize is the smallest well-formed container (empty preamble+footer);
// anything shorter cannot be an IPComp container at all.
const MinSize = preambleSize + footerSize

// Open parses a container's index from an io.ReaderAt of the given size.
func Open(r io.ReaderAt, size int64) (*Store, error) {
	if size < MinSize {
		return nil, fmt.Errorf("store: %d bytes is smaller than the %d-byte minimum container — not an IPComp container", size, MinSize)
	}
	pre := make([]byte, preambleSize)
	if _, err := r.ReadAt(pre, 0); err != nil {
		return nil, err
	}
	if err := checkPreamble(pre); err != nil {
		return nil, err
	}
	foot := make([]byte, footerSize)
	if _, err := r.ReadAt(foot, size-footerSize); err != nil {
		return nil, err
	}
	indexOff, indexSize, version, err := unmarshalFooter(foot)
	if err != nil {
		return nil, err
	}
	if indexOff < preambleSize || indexSize < 0 || indexOff+indexSize != size-footerSize {
		return nil, fmt.Errorf("store: index extent [%d,%d) inconsistent with container size %d",
			indexOff, indexOff+indexSize, size)
	}
	raw := make([]byte, indexSize)
	if _, err := r.ReadAt(raw, indexOff); err != nil {
		return nil, err
	}
	metas, err := unmarshalIndex(raw, indexOff, version)
	if err != nil {
		return nil, err
	}
	s := &Store{
		src:      r,
		size:     size,
		datasets: make(map[string]*datasetMeta, len(metas)),
		id:       storeIDs.Add(1),
		cache:    NewTileCache(DefaultCacheBytes),
	}
	for _, ds := range metas {
		if s.datasets[ds.name] != nil {
			return nil, fmt.Errorf("store: duplicate dataset name %q in index", ds.name)
		}
		s.datasets[ds.name] = ds
		s.order = append(s.order, ds.name)
	}
	return s, nil
}

// OpenBackend opens the named container of a backend. The store's ranged
// reads — index parse, tile header reads, decodes, wire-span serving —
// all flow through the backend, so the same store works against a local
// directory, an in-memory blob, or a (cached) remote origin. If the
// backend carries read counters (a Cached or HTTP tier), Stats surfaces
// them.
func OpenBackend(b backend.Backend, name string) (*Store, error) {
	c, err := backend.OpenContainer(b, name)
	if err != nil {
		return nil, err
	}
	s, err := Open(c, c.Size())
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	// Hold the backend itself as the counter source (not a per-container
	// adapter): stores sharing one backend then report an identical
	// CounterSource, which is what lets aggregators (the /v1/stats
	// endpoint) deduplicate instead of multiple-counting shared counters.
	if cs, ok := b.(backend.CounterSource); ok {
		s.counters = cs
	}
	return s, nil
}

// CounterSource returns the backend counter source this store reads
// through, or nil. Stores opened on the same backend return the same
// value — aggregate by identity to avoid double-counting.
func (s *Store) CounterSource() backend.CounterSource { return s.counters }

// SetCacheBytes resizes the store's private decoded-tile cache
// (TileCache.Resize); 0 disables caching. A store opened on its own has a
// private cache of DefaultCacheBytes. A store attached to a shared cache
// returns an error and leaves that cache alone: its budget bounds every
// store on it, so it is sized where it is made.
func (s *Store) SetCacheBytes(n int64) error {
	if s.shared {
		return errors.New("store: SetCacheBytes on a store attached to a shared tile cache; resize the shared cache instead")
	}
	s.cache.Resize(n)
	return nil
}

// SetTileCache makes the store keep its decoded tiles in c instead of its
// private cache, which is dropped along with whatever it held. A process
// that serves many stores attaches one cache to all of them, so that one
// budget bounds them together and a tile that several snapshots reference
// is decoded once. Call it before the store serves requests.
func (s *Store) SetTileCache(c *TileCache) { s.cache, s.shared = c, true }

// TileCache returns the cache the store keeps its decoded tiles in.
// Aggregators that sum occupancy across stores dedupe by identity.
func (s *Store) TileCache() *TileCache { return s.cache }

// tileKey names chunk ci of ds in the tile cache: by content when the
// store knows the tile's score, by position otherwise.
func (s *Store) tileKey(ds *datasetMeta, ci int) tileKey {
	if s.snap != nil {
		return tileKey{score: s.snap.m.Tiles[ci].Score}
	}
	return tileKey{owner: s.id, dataset: ds.name, chunk: ci}
}

// Stats returns a snapshot of the store's tile-level cache counters,
// plus the byte-level counters of the storage backend when the store was
// opened through one that keeps them (OpenBackend over a Cached or HTTP
// tier).
func (s *Store) Stats() Stats {
	st := s.stats.snapshot()
	if s.counters != nil {
		st.Backend = s.counters.Counters()
	}
	return st
}

// DatasetInfo summarizes one dataset of a container.
type DatasetInfo struct {
	Name            string
	Shape           []int
	ChunkShape      []int
	Scalar          core.ScalarType
	ErrorBound      float64
	NumChunks       int
	CompressedBytes int64
}

// Datasets lists the container's datasets in insertion order.
func (s *Store) Datasets() []DatasetInfo {
	out := make([]DatasetInfo, 0, len(s.order))
	for _, name := range s.order {
		ds := s.datasets[name]
		out = append(out, DatasetInfo{
			Name:            ds.name,
			Shape:           append([]int(nil), ds.shape...),
			ChunkShape:      append([]int(nil), ds.chunk...),
			Scalar:          ds.scalar,
			ErrorBound:      ds.eb,
			NumChunks:       len(ds.chunks),
			CompressedBytes: ds.compressedBytes(),
		})
	}
	return out
}

// Size returns the container's total size in bytes.
func (s *Store) Size() int64 { return s.size }

// SectionReader returns a fresh io.ReadSeeker+io.ReaderAt over the whole
// container. Each call returns an independent reader (safe to use
// concurrently with others), which is what lets ipcompd re-export its
// containers' raw bytes over ranged HTTP — including containers it is
// itself reading from a remote backend.
func (s *Store) SectionReader() *io.SectionReader {
	return io.NewSectionReader(s.src, 0, s.size)
}

// Region is the result of a region-of-interest retrieval, held at the
// dataset's native scalar width (exactly one backing slice is non-nil).
type Region struct {
	data64     []float64
	data32     []float32
	lo, hi     []int
	loaded     int64
	guaranteed float64
	chunks     int
	sc         regionScratch
}

// regionScratch is a retrieval's reusable working state, recycled across
// requests via RetrieveOptions.Reuse so the warm serve path allocates
// nothing.
type regionScratch struct {
	shape   []int         // hi-lo per dimension
	chunks  []int         // linear indices of intersecting tiles
	entries []*chunkEntry // cache entry per tile, parallel to chunks
	cold    []int         // positions in chunks needing decode/refine
	loaded  []int64       // per-cold-tile I/O accounting
	worst   []float64     // per-cold-tile guaranteed bound
}

// Scalar returns the region's element type (the dataset's).
func (r *Region) Scalar() core.ScalarType {
	if r.data32 != nil {
		return core.Float32
	}
	return core.Float64
}

// Data returns the region's values in row-major order over its own shape,
// as float64. Float32 regions are widened into a fresh copy (lossless);
// use DataFloat32 for the native view.
func (r *Region) Data() []float64 {
	if r.data32 != nil {
		return grid.WidenSlice(r.data32)
	}
	return r.data64
}

// DataFloat32 returns the region's values as float32: the native slice for
// float32 datasets, a narrowed (precision-losing) copy for float64 ones.
func (r *Region) DataFloat32() []float32 {
	if r.data32 != nil {
		return r.data32
	}
	return grid.NarrowSlice(r.data64)
}

// Shape returns the region's extents, hi-lo per dimension.
func (r *Region) Shape() []int {
	out := make([]int, len(r.lo))
	for d := range out {
		out[d] = r.hi[d] - r.lo[d]
	}
	return out
}

// Lo returns the region's inclusive origin in dataset coordinates.
func (r *Region) Lo() []int { return append([]int(nil), r.lo...) }

// LoadedBytes reports the container bytes read by this query — bytes
// already resident in the chunk cache from earlier queries are free.
func (r *Region) LoadedBytes() int64 { return r.loaded }

// GuaranteedError is the L∞ bound guaranteed across the region: the worst
// guaranteed error among the chunks that produced it.
func (r *Region) GuaranteedError() float64 { return r.guaranteed }

// Chunks reports how many tiles the query touched.
func (r *Region) Chunks() int { return r.chunks }

// RetrieveOptions tunes RetrieveRegionOpts; the zero value reproduces
// RetrieveRegion exactly.
type RetrieveOptions struct {
	// Gate, when non-nil, is called once per retrieval, after the cached-
	// tile sweep and before the first decode or refine — never for a
	// request answered entirely from warm tiles. Returning an error aborts
	// the retrieval with that error before any decode work. Servers use it
	// to bound decode concurrency (admission control) while warm traffic
	// bypasses the queue entirely.
	Gate func() error
	// Reuse recycles a previous retrieval's allocations (data slice,
	// coordinate slices, per-tile scratch); the returned *Region is Reuse
	// itself. The caller must be done with every slice that region handed
	// out — Data()/DataFloat32() views are overwritten in place.
	Reuse *Region
	// Stage, when non-nil, receives coarse per-retrieval stage timings:
	// the warm cached-tile sweep and the cold decode/refine fan-out.
	// Servers wire this to a request trace; it must be cheap and must not
	// retain the arguments.
	Stage func(stage obs.Stage, d time.Duration)
	// Decode, when non-nil, collects fine-grained decode-path timings
	// (entropy-codec and backend-read time) from every tile this retrieval
	// decodes or refines.
	Decode *core.DecodeStats
}

// RetrieveRegion reconstructs the box [lo, hi) of the named dataset with a
// guaranteed L∞ error of at most bound (0 means full fidelity). Only the
// chunks intersecting the region are opened; each is retrieved at the
// requested bound, reusing and refining cached decodes. The region is
// produced at the dataset's native scalar width.
func (s *Store) RetrieveRegion(name string, lo, hi []int, bound float64) (*Region, error) {
	return s.RetrieveRegionOpts(name, lo, hi, bound, RetrieveOptions{})
}

// RetrieveRegionOpts is RetrieveRegion with admission gating and region
// reuse; see RetrieveOptions.
func (s *Store) RetrieveRegionOpts(name string, lo, hi []int, bound float64, opts RetrieveOptions) (*Region, error) {
	ds, ok := s.datasets[name]
	if !ok {
		return nil, fmt.Errorf("store: no dataset %q (have %v)", name, s.order)
	}
	if ds.scalar == core.Float32 {
		return retrieveRegionAs[float32](s, ds, lo, hi, bound, opts)
	}
	return retrieveRegionAs[float64](s, ds, lo, hi, bound, opts)
}

func retrieveRegionAs[T grid.Scalar](s *Store, ds *datasetMeta, lo, hi []int, bound float64, opts RetrieveOptions) (*Region, error) {
	if err := validateRegion(ds.shape, lo, hi); err != nil {
		return nil, err
	}
	if bound == 0 {
		bound = ds.eb
	}
	if bound < ds.eb {
		return nil, core.ErrBoundTooTight
	}

	region := opts.Reuse
	if region == nil {
		region = &Region{}
	}
	region.lo = append(region.lo[:0], lo...)
	region.hi = append(region.hi[:0], hi...)
	region.loaded, region.guaranteed = 0, 0
	lo, hi = region.lo, region.hi // detach from the caller's (possibly pooled) slices
	data := regionData[T](region, boxLen(lo, hi))
	sc := &region.sc
	sc.shape = sc.shape[:0]
	for d := range lo {
		sc.shape = append(sc.shape, hi[d]-lo[d])
	}
	// No zeroing of reused data: the intersecting tiles jointly cover every
	// element of the region, so each element is written exactly once below.
	sc.chunks = ds.til.intersectingInto(sc.chunks, lo, hi)
	region.chunks = len(sc.chunks)
	sc.entries = sc.entries[:0]
	sc.cold = sc.cold[:0]

	// Warm sweep: serve every tile already decoded at sufficient fidelity
	// under its read lock — no goroutines, no channel, no allocation. The
	// copy-out happens while the entry is read-locked because a concurrent
	// tighter query could otherwise refine the shared slice mid-copy. The
	// sweep only peeks: a tile not in the cache is admitted after the gate
	// passes, so a refused retrieval charges and evicts nothing.
	var stageT time.Time
	if opts.Stage != nil {
		stageT = time.Now()
	}
	for pos, ci := range sc.chunks {
		rec := &ds.chunks[ci]
		entry := s.cache.peek(s.tileKey(ds, ci))
		sc.entries = append(sc.entries, entry)
		if entry == nil {
			sc.cold = append(sc.cold, pos)
			continue
		}
		entry.mu.RLock()
		if entry.res != nil && entry.res.GuaranteedError() <= bound {
			s.stats.hits.Add(1)
			region.loaded += entry.claimLoaded()
			if g := entry.res.GuaranteedError(); g > region.guaranteed {
				region.guaranteed = g
			}
			copyChunk(data, sc.shape, lo, hi, entry.res, rec)
			entry.mu.RUnlock()
			continue
		}
		entry.mu.RUnlock()
		sc.cold = append(sc.cold, pos)
	}
	if opts.Stage != nil {
		opts.Stage(obs.StageWarmSweep, time.Since(stageT))
	}
	if len(sc.cold) == 0 {
		return region, nil
	}

	// At least one tile needs decode or refine work: pass through the
	// admission gate once, admit the tiles the cache does not hold, then fan
	// out over just the cold tiles. acquire is idempotent under the cache
	// lock, so concurrent retrievals of one tile still share one entry and
	// one decode.
	if opts.Gate != nil {
		if err := opts.Gate(); err != nil {
			return nil, err
		}
	}
	for _, pos := range sc.cold {
		if sc.entries[pos] == nil {
			rec := &ds.chunks[sc.chunks[pos]]
			sc.entries[pos] = s.cache.acquire(s.tileKey(ds, sc.chunks[pos]),
				int64(boxLen(rec.lo, rec.hi))*cachedBytesPerElem(ds.scalar))
		}
	}
	if cap(sc.loaded) < len(sc.cold) {
		sc.loaded = make([]int64, len(sc.cold))
		sc.worst = make([]float64, len(sc.cold))
	}
	loaded := sc.loaded[:len(sc.cold)]
	worst := sc.worst[:len(sc.cold)]
	if opts.Stage != nil {
		stageT = time.Now()
	}
	err := core.ParallelForErr(len(sc.cold), func(k int) error {
		pos := sc.cold[k]
		ci := sc.chunks[pos]
		rec := &ds.chunks[ci]
		entry := sc.entries[pos]
		// Concurrent requests for the same cold tile queue on the write
		// lock and find the work already done — one decode, N consumers.
		entry.mu.Lock()
		defer entry.mu.Unlock()
		if err := s.ensureChunk(entry, ds, ci, bound, opts.Decode); err != nil {
			return fmt.Errorf("store: dataset %q chunk %d: %w", ds.name, ci, err)
		}
		loaded[k] = entry.claimLoaded()
		worst[k] = entry.res.GuaranteedError()
		copyChunk(data, sc.shape, lo, hi, entry.res, rec)
		if entry.private {
			// Nothing evicts an entry no cache holds: hand its decode to
			// the next cold tile here, as eviction would.
			entry.res.Release()
			entry.res = nil
		}
		return nil
	})
	if opts.Stage != nil {
		opts.Stage(obs.StageTileDecode, time.Since(stageT))
	}
	if err != nil {
		return nil, err
	}
	for k := range loaded {
		region.loaded += loaded[k]
		if worst[k] > region.guaranteed {
			region.guaranteed = worst[k]
		}
	}
	return region, nil
}

// regionData returns the region's backing slice resized to n elements of
// the retrieval's native type, reusing prior capacity when the region is
// recycled via RetrieveOptions.Reuse.
func regionData[T grid.Scalar](r *Region, n int) []T {
	if core.ScalarOf[T]() == core.Float32 {
		if cap(r.data32) < n {
			r.data32 = make([]float32, n)
		}
		r.data32 = r.data32[:n]
		r.data64 = nil
		return any(r.data32).([]T)
	}
	if cap(r.data64) < n {
		r.data64 = make([]float64, n)
	}
	r.data64 = r.data64[:n]
	r.data32 = nil
	return any(r.data64).([]T)
}

// copyChunk copies res's overlap with the region [lo, hi) into the
// region's backing slice without allocating. Callers hold the entry lock
// (read or write) so a concurrent refine cannot rewrite the shared slice
// mid-copy; ensureChunk verified the chunk's scalar matches the dataset's,
// so DataOf returns the shared native slice — no copy, no conversion.
func copyChunk[T grid.Scalar](dst []T, shape, lo, hi []int, res *core.Result, rec *chunkRecord) {
	r := len(lo)
	var cloA, chiA, cshA [maxStackRank]int
	var clo, chi, csh []int
	if r <= maxStackRank {
		clo, chi, csh = cloA[:r], chiA[:r], cshA[:r]
	} else {
		clo, chi, csh = make([]int, r), make([]int, r), make([]int, r)
	}
	for d := 0; d < r; d++ {
		clo[d] = lo[d]
		if rec.lo[d] > clo[d] {
			clo[d] = rec.lo[d]
		}
		chi[d] = hi[d]
		if rec.hi[d] < chi[d] {
			chi[d] = rec.hi[d]
		}
		csh[d] = rec.hi[d] - rec.lo[d]
	}
	CopyRegion(dst, shape, lo, core.DataOf[T](res), csh, rec.lo, clo, chi)
}

// RetrieveDataset reconstructs a whole dataset at the given bound.
func (s *Store) RetrieveDataset(name string, bound float64) (*Region, error) {
	ds, ok := s.datasets[name]
	if !ok {
		return nil, fmt.Errorf("store: no dataset %q (have %v)", name, s.order)
	}
	hi := append([]int(nil), ds.shape...)
	return s.RetrieveRegion(name, make([]int, len(ds.shape)), hi, bound)
}

// openChunkArchive parses (or returns the cached parse of) a tile's
// archive header. It needs no lock: the cached pointer is set once via
// CAS (racing parses produce equivalent archives and the loser's is
// dropped), so wire planning can call it while a decode holds entry.mu.
// Only the header is read — planning never decodes the tile.
//
// A content-keyed entry outlives any one snapshot, so its archive reads
// the blob from the CAS by score, not through the container image of the
// snapshot that happened to touch it first: deleting that snapshot leaves
// a later refine through another one working.
func (s *Store) openChunkArchive(entry *chunkEntry, ds *datasetMeta, ci int) (*core.Archive, error) {
	arch := entry.arch.Load()
	if arch == nil {
		rec := &ds.chunks[ci]
		var blob io.ReaderAt = io.NewSectionReader(s.src, rec.off, rec.size)
		if s.snap != nil {
			blob = blobReaderAt{c: s.snap.c, score: entry.key.score}
		}
		var err error
		if arch, err = core.NewArchiveReaderAt(blob, rec.size); err != nil {
			return nil, err
		}
		if !entry.arch.CompareAndSwap(nil, arch) {
			arch = entry.arch.Load()
		}
	}
	// Retrievals read the cached result through the dataset's scalar type
	// without conversion, and stride it by the chunk record's box; a chunk
	// encoded at another width or of another shape is a corrupt container,
	// not a silently-degraded copy. A tile therefore decodes at most its
	// box. Checked on every call: a shared entry may have been parsed on
	// behalf of another dataset.
	if arch.Scalar() != ds.scalar {
		return nil, fmt.Errorf("store: chunk archive is %v, dataset index says %v", arch.Scalar(), ds.scalar)
	}
	if rec := &ds.chunks[ci]; !isBox(arch.Shape(), rec.lo, rec.hi) {
		return nil, fmt.Errorf("store: chunk archive has shape %v, dataset index box is [%v,%v)", arch.Shape(), rec.lo, rec.hi)
	}
	return arch, nil
}

// settle charges a cached tile what its result retains, after every
// decode and refine. Callers hold entry.mu and a result.
func (s *Store) settle(entry *chunkEntry) {
	if !entry.private {
		s.cache.settle(entry, entry.res.RetainedBytes())
	}
}

// ensureChunk makes entry.res valid at fidelity `bound` or better: first
// touch opens the chunk's archive through a section of the container and
// retrieves at the bound; a cached result with a looser guarantee is
// refined in place, loading only the additional bitplanes. Callers hold
// entry.mu for writing. st (may be nil) collects decode-path timings for
// this request; it is attached only while the lock is held, so a cached
// result never reports into a finished request's collector.
func (s *Store) ensureChunk(entry *chunkEntry, ds *datasetMeta, ci int, bound float64, st *core.DecodeStats) error {
	if entry.res == nil {
		arch, err := s.openChunkArchive(entry, ds, ci)
		if err != nil {
			return err
		}
		res, err := arch.RetrieveErrorBoundStats(bound, st)
		if err != nil {
			return err
		}
		res.SetDecodeStats(nil)
		s.stats.decodes.Add(1)
		entry.res = res
		s.settle(entry)
		return nil
	}
	if entry.res.GuaranteedError() > bound {
		entry.res.SetDecodeStats(st)
		err := entry.res.RefineErrorBound(bound)
		entry.res.SetDecodeStats(nil)
		if err != nil {
			// A refinement reads and decodes every new plane before it
			// changes the result, so one that fails leaves the tile at
			// its previous plan: it stays cached and still serves the
			// bound it guarantees.
			return err
		}
		s.stats.refines.Add(1)
		s.settle(entry)
		return nil
	}
	// Another request decoded or refined the tile while we waited for the
	// write lock.
	s.stats.hits.Add(1)
	return nil
}
