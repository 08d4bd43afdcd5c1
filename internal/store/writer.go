package store

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/interp"
)

// WriteOptions configures how one dataset is chunked and compressed.
type WriteOptions struct {
	// ErrorBound is the absolute point-wise error bound (required, > 0).
	ErrorBound float64
	// Interpolation selects the chunk compressor's predictor.
	Interpolation interp.Kind
	// ChunkShape is the nominal tile shape; nil/empty means a
	// DefaultChunkEdge hypercube clipped to the dataset extents. Must have
	// the dataset's rank when set.
	ChunkShape grid.Shape
	// ProgressiveThreshold is passed through to core.Options.
	ProgressiveThreshold int
}

// Writer builds a container by streaming compressed chunks to an io.Writer
// and appending the index and footer on Close. It never seeks, so any
// sink works: a file, a network connection, a bytes.Buffer.
type Writer struct {
	w        io.Writer
	off      int64
	datasets []*datasetMeta
	names    map[string]bool
	closed   bool
}

// NewWriter starts a container on w by writing the preamble.
func NewWriter(w io.Writer) (*Writer, error) {
	sw := &Writer{w: w, names: make(map[string]bool)}
	if err := sw.write(marshalPreamble()); err != nil {
		return nil, err
	}
	return sw, nil
}

func (w *Writer) write(p []byte) error {
	n, err := w.w.Write(p)
	w.off += int64(n)
	if err == nil && n < len(p) {
		err = io.ErrShortWrite
	}
	return err
}

// AddGrid is the float64 form of the generic Add function, kept as a
// method for existing callers.
func (w *Writer) AddGrid(name string, g *grid.Grid[float64], opt WriteOptions) error {
	return Add(w, name, g, opt)
}

// Add tiles the grid, compresses every tile as an independent IPComp
// archive on a worker pool, and appends the blobs to the container. The
// compression work fans out across all cores; the writes land sequentially
// in chunk order. The dataset's scalar type is recorded in the index, and
// every chunk archive is encoded at that width — float32 datasets halve
// both the staging memory and the kernel bandwidth. (Methods cannot be
// generic in Go, hence the free function.)
func Add[T grid.Scalar](w *Writer, name string, g *grid.Grid[T], opt WriteOptions) error {
	if w.closed {
		return errClosed
	}
	if name == "" || len(name) > maxNameLen {
		return fmt.Errorf("store: invalid dataset name %q", name)
	}
	if w.names[name] {
		return fmt.Errorf("store: duplicate dataset name %q", name)
	}
	til, err := tilingFor(g.Shape(), opt)
	if err != nil {
		return err
	}
	blobs, err := compressTiles(name, g, til, opt, nil)
	if err != nil {
		return err
	}
	ds := &datasetMeta{
		name:   name,
		shape:  g.Shape().Clone(),
		chunk:  til.chunk.Clone(),
		scalar: core.ScalarOf[T](),
		eb:     opt.ErrorBound,
		til:    til,
		chunks: make([]chunkRecord, til.n),
	}

	for i, blob := range blobs {
		lo, hi := til.box(i)
		ds.chunks[i] = chunkRecord{
			off:    w.off,
			size:   int64(len(blob)),
			lo:     lo,
			hi:     hi,
			maxErr: opt.ErrorBound,
		}
		if err := w.write(blob); err != nil {
			return err
		}
	}
	w.datasets = append(w.datasets, ds)
	w.names[name] = true
	return nil
}

// tilingFor is the tiling a dataset of the given extents is written
// under: the option's chunk shape, or the default one.
func tilingFor(shape grid.Shape, opt WriteOptions) (*tiling, error) {
	chunk := opt.ChunkShape
	if len(chunk) == 0 {
		chunk = defaultChunkShape(shape)
	}
	return newTiling(shape, chunk)
}

// compressTiles compresses every tile of the grid as an independent
// IPComp archive on a worker pool and returns the blobs in row-major chunk
// order — the compression stage shared by container packing (Add) and
// online ingest (PackSnapshot). skip, when not nil, is shown each staged
// tile before it is compressed and may claim it: that tile's blob stays
// nil. It runs on the workers, concurrently. Any chunk error aborts the
// whole dataset. Tile staging buffers come from a pool shared across
// workers and datasets: CopyRegion overwrites the full box and Compress
// copies it into its own scratch, so reuse is safe.
func compressTiles[T grid.Scalar](name string, g *grid.Grid[T], til *tiling, opt WriteOptions, skip func(i int, tile *grid.Grid[T]) bool) ([][]byte, error) {
	blobs := make([][]byte, til.n)
	err := core.ParallelForErr(til.n, func(i int) error {
		lo, hi := til.box(i)
		shape := make(grid.Shape, len(lo))
		for d := range lo {
			shape[d] = hi[d] - lo[d]
		}
		buf := getTile[T](shape.Len())
		defer putTile(buf)
		sub, err := grid.FromSlice(buf, shape)
		if err != nil {
			return err
		}
		CopyRegion(sub.Data(), shape, lo, g.Data(), g.Shape(), make([]int, len(lo)), lo, hi)
		if skip != nil && skip(i, sub) {
			return nil
		}
		blob, err := core.Compress(sub, core.Options{
			ErrorBound:           opt.ErrorBound,
			Interpolation:        opt.Interpolation,
			ProgressiveThreshold: opt.ProgressiveThreshold,
		})
		if err != nil {
			return fmt.Errorf("store: dataset %q chunk %d: %w", name, i, err)
		}
		blobs[i] = blob
		return nil
	})
	if err != nil {
		return nil, err
	}
	return blobs, nil
}

// Close appends the index and footer, completing the container. The
// underlying writer is not closed.
func (w *Writer) Close() error {
	if w.closed {
		return errClosed
	}
	w.closed = true
	version := indexVersion(w.datasets)
	indexOff := w.off
	index := marshalIndex(w.datasets, version)
	if err := w.write(index); err != nil {
		return err
	}
	return w.write(marshalFooter(indexOff, int64(len(index)), version))
}

var errClosed = fmt.Errorf("store: writer already closed")
