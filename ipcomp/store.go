package ipcomp

import (
	"fmt"
	"io"
	"os"

	"repro/internal/backend"
	"repro/internal/grid"
	"repro/internal/store"
)

// StoreOptions configures how one dataset is added to a container.
type StoreOptions struct {
	// ErrorBound is the absolute point-wise error bound (required, > 0).
	ErrorBound float64
	// Relative interprets ErrorBound as a fraction of the dataset's value
	// range, the paper's convention. The range is computed over the whole
	// dataset, so every chunk shares one absolute bound. It ignores NaN
	// wherever it sits; a dataset with no finite value, or whose values are
	// all equal, counts as constant (range 1), and one holding an infinity
	// beside finite values is refused, as in Options.Relative.
	Relative bool
	// Interpolation defaults to Cubic (DefaultInterpolation).
	Interpolation Interpolation
	// ChunkShape is the tile shape; nil means 64 per dimension, clipped to
	// the dataset extents.
	ChunkShape []int
	// ProgressiveThreshold is the minimum level size (elements) that is
	// bitplane-progressive within each chunk; 0 means the library default.
	ProgressiveThreshold int
}

// StoreWriter builds a chunked multi-dataset container. Each Add tiles the
// dataset and compresses the tiles in parallel; Close appends the index.
//
//	f, _ := os.Create("climate.ipcs")
//	sw, _ := ipcomp.NewStoreWriter(f)
//	sw.Add("temperature", temp, []int{256, 384, 384}, ipcomp.StoreOptions{
//		ErrorBound: 1e-6, Relative: true,
//	})
//	sw.Add("pressure", pres, []int{256, 384, 384}, ipcomp.StoreOptions{
//		ErrorBound: 1e-6, Relative: true,
//	})
//	sw.Close()
//	f.Close()
type StoreWriter struct {
	w *store.Writer
}

// NewStoreWriter starts a container on w. The writer streams: it never
// seeks, so any io.Writer works.
func NewStoreWriter(w io.Writer) (*StoreWriter, error) {
	sw, err := store.NewWriter(w)
	if err != nil {
		return nil, err
	}
	return &StoreWriter{w: sw}, nil
}

// Add compresses a row-major float64 dataset into the container under the
// given name.
func (sw *StoreWriter) Add(name string, data []float64, shape []int, opt StoreOptions) error {
	return addAs(sw, name, data, shape, opt)
}

// AddFloat32 compresses a row-major float32 dataset into the container
// natively: tiles stage and compress at 4 bytes per element, and the
// dataset's scalar type is recorded in the container index so retrievals
// come back as float32.
func (sw *StoreWriter) AddFloat32(name string, data []float32, shape []int, opt StoreOptions) error {
	return addAs(sw, name, data, shape, opt)
}

func addAs[T grid.Scalar](sw *StoreWriter, name string, data []T, shape []int, opt StoreOptions) error {
	g, err := grid.FromSlice(data, grid.Shape(shape))
	if err != nil {
		return err
	}
	eb, err := absoluteBound(g, opt.ErrorBound, opt.Relative)
	if err != nil {
		return err
	}
	return store.Add(sw.w, name, g, store.WriteOptions{
		ErrorBound:           eb,
		Interpolation:        opt.Interpolation.kind(),
		ChunkShape:           grid.Shape(opt.ChunkShape),
		ProgressiveThreshold: opt.ProgressiveThreshold,
	})
}

// absoluteBound resolves a bound given relative to the grid's value range
// by the rule a snapshot's writer follows (store.SeriesBound): scaled by
// the range, left as given on a constant field, and refused over a field
// that holds an infinity.
func absoluteBound[T grid.Scalar](g *grid.Grid[T], eb float64, rel bool) (float64, error) {
	if !rel || eb == 0 {
		return eb, nil
	}
	return store.SeriesBound(g, nil, eb, true)
}

// Close appends the index and footer, completing the container. It does
// not close the underlying writer.
func (sw *StoreWriter) Close() error { return sw.w.Close() }

// StoreDataset summarizes one dataset of an open container.
type StoreDataset = store.DatasetInfo

// Region is a region-of-interest reconstruction from a Store.
type Region struct {
	r *store.Region
}

// Scalar returns the region's element type (the dataset's).
func (r *Region) Scalar() ScalarType { return r.r.Scalar() }

// Data returns the region's values in row-major order over Shape(), as
// float64; float32 regions are widened losslessly into a fresh copy.
func (r *Region) Data() []float64 { return r.r.Data() }

// DataFloat32 returns the region's values as float32: the native slice for
// float32 datasets, a narrowed (precision-losing) copy for float64 ones.
func (r *Region) DataFloat32() []float32 { return r.r.DataFloat32() }

// Shape returns the region's extents.
func (r *Region) Shape() []int { return r.r.Shape() }

// LoadedBytes reports the container bytes this query read; chunks already
// decoded in the store's cache are free.
func (r *Region) LoadedBytes() int64 { return r.r.LoadedBytes() }

// GuaranteedError is the L∞ bound guaranteed across the region.
func (r *Region) GuaranteedError() float64 { return r.r.GuaranteedError() }

// Chunks reports how many tiles the query touched.
func (r *Region) Chunks() int { return r.r.Chunks() }

// Store provides region-of-interest access to a chunked container. Every
// query opens only the tiles that intersect its region, retrieves each at
// the requested fidelity concurrently, and caches decoded tiles (LRU) so
// overlapping or repeated queries refine instead of re-decoding.
type Store struct {
	s *store.Store
	c io.Closer
}

// OpenStore opens a container through an io.ReaderAt of the given size.
// Only the index is read eagerly.
func OpenStore(r io.ReaderAt, size int64) (*Store, error) {
	s, err := store.Open(r, size)
	if err != nil {
		return nil, err
	}
	return &Store{s: s}, nil
}

// OpenStoreFile opens a container file. Close releases the file handle.
func OpenStoreFile(path string) (*Store, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	s, err := store.Open(f, st.Size())
	if err != nil {
		f.Close()
		return nil, err
	}
	return &Store{s: s, c: f}, nil
}

// OpenURL opens a container addressed by a local path or URL, routing the
// store's ranged reads through the matching storage backend:
//
//	/data/climate.ipcs                           local file
//	file:///data/climate.ipcs                    local file
//	http://host:8080                             an ipcompd origin (must serve exactly one container)
//	http://host:8080/v1/containers/climate.ipcs  one container of an ipcompd origin
//	https://cdn/data/climate.ipcs                a file on any Range-capable static server
//
// Remote (http/https) containers are opened through a read-through span
// cache (backend.DefaultCachedBytes), so repeated and refining queries
// fetch each byte range from the origin at most once; Stats reports the
// cache's counters. Close releases the backend.
func OpenURL(spec string) (*Store, error) {
	b, name, err := backend.Open(spec)
	if err != nil {
		return nil, err
	}
	if name == "" {
		names, err := b.List()
		if err != nil {
			backend.Close(b)
			return nil, err
		}
		if len(names) != 1 {
			backend.Close(b)
			return nil, fmt.Errorf("ipcomp: %q addresses %d containers %v; name one (e.g. append it to the URL or path)",
				spec, len(names), names)
		}
		name = names[0]
	}
	if backend.IsRemote(b) {
		b = backend.NewCached(b, backend.DefaultCachedBytes)
	}
	s, err := store.OpenBackend(b, name)
	if err != nil {
		backend.Close(b)
		return nil, err
	}
	return &Store{s: s, c: backendCloser{b}}, nil
}

// backendCloser adapts backend.Close to io.Closer for Store.Close.
type backendCloser struct{ b backend.Backend }

func (c backendCloser) Close() error { return backend.Close(c.b) }

// StoreStats is a snapshot of a store's cache counters: tile-level
// decode/refine/hit counts, plus the storage backend's span-cache
// counters (hits, misses, origin bytes fetched, coalesced reads) for
// stores opened through OpenURL on a remote backend.
type StoreStats = store.Stats

// Stats returns the store's cache counters.
func (s *Store) Stats() StoreStats { return s.s.Stats() }

// Close releases the file handle held by OpenStoreFile (or the storage
// backend held by OpenURL); it is a no-op for stores opened on a
// caller-owned reader.
func (s *Store) Close() error {
	if s.c == nil {
		return nil
	}
	return s.c.Close()
}

// Datasets lists the container's datasets in insertion order.
func (s *Store) Datasets() []StoreDataset { return s.s.Datasets() }

// Size returns the container size in bytes.
func (s *Store) Size() int64 { return s.s.Size() }

// SetCacheBytes resizes the store's decoded-tile LRU cache (default
// 256 MiB); 0 disables caching. A Store opened through this package has a
// cache of its own, so the budget bounds this store alone; ipcompd instead
// keeps the tiles of everything it serves in one cache sized by -cache-mb.
func (s *Store) SetCacheBytes(n int64) {
	_ = s.s.SetCacheBytes(n) // fails only on an attached cache, and nothing here attaches one
}

// RetrieveRegion reconstructs the box [lo, hi) of the named dataset with a
// guaranteed L∞ error of at most bound; bound 0 means full fidelity. The
// result's shape is hi-lo per dimension.
func (s *Store) RetrieveRegion(name string, lo, hi []int, bound float64) (*Region, error) {
	r, err := s.s.RetrieveRegion(name, lo, hi, bound)
	if err != nil {
		return nil, err
	}
	return &Region{r: r}, nil
}

// RetrieveDataset reconstructs a whole named dataset at the given bound.
func (s *Store) RetrieveDataset(name string, bound float64) (*Region, error) {
	r, err := s.s.RetrieveDataset(name, bound)
	if err != nil {
		return nil, err
	}
	return &Region{r: r}, nil
}

// String summarizes the container for logs.
func (s *Store) String() string {
	return fmt.Sprintf("ipcomp.Store{%d datasets, %d bytes}", len(s.s.Datasets()), s.s.Size())
}
