package client

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/store"
	"repro/internal/wire"
)

// Region is a remotely retrieved region-of-interest reconstruction. It
// holds, per tile, the archive ranges fetched so far and the decoded
// result, so Refine can apply delta planes in place. Like ipcomp.Result,
// a Region is not safe for concurrent use by callers; Region and Refine
// themselves decode tiles on up to GOMAXPROCS cores.
type Region struct {
	c       *Client
	dataset string
	lo, hi  []int
	shape   []int
	scalar  core.ScalarType
	bound   float64 // tightest bound certified by the token
	token   string
	fetched int64
	data64  []float64
	data32  []float32
	chunks  map[int]*remoteChunk
	round   int // fetches started, to spot a tile framed twice in one
}

// remoteChunk is one tile's client-side state.
type remoteChunk struct {
	index  int
	lo, hi []int
	src    *sparseSource
	res    *core.Result // nil until the tile's first decode succeeded
	round  int          // the Region.round of the last frame read for it
}

// Region fetches the box [lo, hi) of the named dataset at the given
// absolute error bound (0 means full fidelity) using the progressive
// planes protocol: the response carries compressed bitplane ranges, which
// are decoded locally.
func (c *Client) Region(ctx context.Context, dataset string, lo, hi []int, bound float64) (*Region, error) {
	if len(lo) != len(hi) || len(lo) == 0 {
		return nil, fmt.Errorf("client: malformed region [%v, %v)", lo, hi)
	}
	reg := &Region{
		c:       c,
		dataset: dataset,
		lo:      append([]int(nil), lo...),
		hi:      append([]int(nil), hi...),
		chunks:  make(map[int]*remoteChunk),
	}
	reg.shape = make([]int, len(lo))
	for d := range lo {
		reg.shape[d] = hi[d] - lo[d]
	}
	if err := reg.fetch(ctx, bound, ""); err != nil {
		return nil, err
	}
	return reg, nil
}

// Refine raises the region to a tighter absolute bound by fetching only
// the delta planes beyond the retrieval token of the previous response
// and applying them in place. Refining to a bound the region already
// satisfies is a cheap no-op round trip.
func (reg *Region) Refine(ctx context.Context, bound float64) error {
	return reg.fetch(ctx, bound, reg.token)
}

func (reg *Region) fetch(ctx context.Context, bound float64, refine string) error {
	// 0 means full fidelity; anything else must be a positive finite
	// bound. Dropping a NaN/negative silently would turn a caller's
	// arithmetic bug into an expensive full-fidelity download.
	if bound < 0 || math.IsNaN(bound) || math.IsInf(bound, 0) {
		return fmt.Errorf("client: invalid error bound %g", bound)
	}
	q := url.Values{
		"lo":     {coords(reg.lo)},
		"hi":     {coords(reg.hi)},
		"format": {"planes"},
	}
	if bound > 0 {
		q.Set("bound", strconv.FormatFloat(bound, 'g', -1, 64))
	}
	if refine != "" {
		q.Set("refine", refine)
	}
	resp, err := reg.c.get(ctx, "/v1/datasets/"+url.PathEscape(reg.dataset)+"/region", q)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body := newFrameReader(resp.Body, resp.ContentLength)
	defer func() {
		reg.fetched += body.read
		body.release()
	}()

	h, err := wire.ReadRegionHeader(body)
	if err != nil {
		return err
	}
	if h.Rank != len(reg.lo) {
		return fmt.Errorf("client: response is rank %d, request was rank %d", h.Rank, len(reg.lo))
	}
	for d := range reg.lo {
		if h.Lo[d] != reg.lo[d] || h.Hi[d] != reg.hi[d] {
			return fmt.Errorf("client: response covers [%v, %v), request was [%v, %v)", h.Lo, h.Hi, reg.lo, reg.hi)
		}
	}
	if reg.data64 == nil && reg.data32 == nil {
		n := 1
		for _, e := range reg.shape {
			n *= e
		}
		reg.scalar = h.Scalar
		if h.Scalar == core.Float32 {
			reg.data32 = make([]float32, n)
		} else {
			reg.data64 = make([]float64, n)
		}
	} else if h.Scalar != reg.scalar {
		return fmt.Errorf("client: response scalar %v does not match region's %v", h.Scalar, reg.scalar)
	}

	// The pipeline: this goroutine parses frames off the body and puts
	// each complete one into a queue whose workers — helper goroutines
	// from core's process-wide budget, and this goroutine whenever they
	// are all busy or there are none — decode the frame's tile, so a tile
	// decodes while the next one is still arriving and up to GOMAXPROCS
	// tiles decode at once. A frame is self-contained and a server's tiles
	// overlap nowhere, so workers share nothing they write. After the
	// first failure no further frame is parsed and none still queued is
	// decoded; tiles in work finish, so every tile ends either at its old
	// plan or fully at the new one, and only a fetch in which everything
	// succeeded publishes the new token and bound. Retrying a failed
	// Refine is safe: ranges that already landed merge silently.
	var failure atomic.Pointer[error] // the first one
	fail := func(err error) { failure.CompareAndSwap(nil, &err) }
	workers := core.NewQueue(func(fr frame) {
		if failure.Load() != nil {
			fr.rollback()
		} else if err := reg.decode(fr); err != nil {
			fr.rollback()
			fail(err)
		}
	})
	reg.round++
	for i := 0; i < h.NumChunks && failure.Load() == nil; i++ {
		if err := ctx.Err(); err != nil {
			fail(err)
			break
		}
		fr, err := reg.readFrame(body, h.Rank)
		if err != nil {
			fail(err)
			break
		}
		workers.Put(fr)
	}
	workers.Close()
	if ferr := failure.Load(); ferr != nil {
		// A tile this fetch introduced and could not decode holds no
		// values; without it the region's guarantee covers what it did
		// before.
		for idx, rc := range reg.chunks {
			if rc.res == nil {
				delete(reg.chunks, idx)
			}
		}
		return *ferr
	}
	reg.token = resp.Header.Get("X-Ipcomp-Token")
	if reg.bound == 0 || h.Bound < reg.bound {
		reg.bound = h.Bound
	}
	return nil
}

// frame is one parsed tile frame on its way to a worker.
type frame struct {
	rc   *remoteChunk
	plan core.Plan // what the frame raises the tile to
	// undo is the tile's source as it was before the frame's spans went
	// in, for a tile that already holds values.
	undo *backend.Sparse
}

// rollback takes a frame's spans back out of its tile's source. A frame
// that is not decoded leaves nothing behind, so that a tile is either
// fully at the frame's plan or exactly as it was — and if what failed was
// damage to the bytes, a retry is not refused for carrying different ones.
func (fr frame) rollback() {
	if fr.undo != nil {
		fr.rc.src.sp = fr.undo
	}
}

// readFrame consumes one tile frame off the body: its spans land in the
// tile's sparse source. Decoding is the worker's half.
func (reg *Region) readFrame(body *frameReader, rank int) (frame, error) {
	ch, err := wire.ReadChunkHeader(body, rank)
	if err != nil {
		return frame{}, err
	}
	fr := frame{rc: reg.chunks[ch.Index], plan: core.Plan{Keep: ch.Keep}}
	rc := fr.rc
	if rc == nil {
		for d := range ch.Lo {
			if ch.Hi[d] <= ch.Lo[d] {
				return frame{}, fmt.Errorf("client: chunk %d declares empty box [%v, %v)", ch.Index, ch.Lo, ch.Hi)
			}
		}
		rc = &remoteChunk{
			index: ch.Index,
			lo:    ch.Lo,
			hi:    ch.Hi,
			src:   newSparseSource(ch.BlobSize),
		}
		reg.chunks[ch.Index], fr.rc = rc, rc
	} else {
		// A second frame for a tile would have two workers decode it at
		// once.
		if rc.round == reg.round {
			return frame{}, fmt.Errorf("client: chunk %d appears twice in one response", ch.Index)
		}
		// Refinement frames must describe the same tile they did on the
		// first fetch; a drifting box would mis-place the copy-out.
		for d := range ch.Lo {
			if ch.Lo[d] != rc.lo[d] || ch.Hi[d] != rc.hi[d] {
				return frame{}, fmt.Errorf("client: chunk %d moved from [%v, %v) to [%v, %v) between responses",
					ch.Index, rc.lo, rc.hi, ch.Lo, ch.Hi)
			}
		}
		fr.undo = rc.src.sp.Clone()
	}
	rc.round = reg.round
	if err := readSpans(body, rc.src, ch.NumSpans); err != nil {
		fr.rollback()
		return frame{}, fmt.Errorf("client: chunk %d: %w", ch.Index, err)
	}
	return fr, nil
}

// readSpans reads the n spans of a frame into the tile's source.
func readSpans(body *frameReader, src *sparseSource, n int) error {
	for ; n > 0; n-- {
		sp, err := wire.ReadSpanHeader(body)
		if err != nil {
			return err
		}
		if sp.Len > src.Size() {
			return fmt.Errorf("span of %d bytes exceeds the tile's archive size %d", sp.Len, src.Size())
		}
		payload, err := body.payload(sp.Len)
		if err != nil {
			return fmt.Errorf("span at %d: %w", sp.Off, err)
		}
		if err := src.insert(sp.Off, payload); err != nil {
			return err
		}
	}
	return nil
}

// decode raises a frame's tile to the frame's plan and copies the tile's
// overlap into the region. It runs on a pipeline worker and touches only
// the tile's own state and the tile's own part of the region's data.
func (reg *Region) decode(fr frame) error {
	rc := fr.rc
	if rc.res != nil {
		if err := rc.res.RefineTo(fr.plan); err != nil {
			return fmt.Errorf("client: chunk %d: %w", rc.index, err)
		}
		reg.assimilate(rc)
		return nil
	}
	arch, err := core.NewArchiveFrom(rc.src)
	if err != nil {
		return fmt.Errorf("client: chunk %d: %w", rc.index, err)
	}
	if arch.Scalar() != reg.scalar {
		return fmt.Errorf("client: chunk %d is %v, response header says %v", rc.index, arch.Scalar(), reg.scalar)
	}
	// The frame's box sizes the copy-out of the decoded tile; it must
	// agree with the shape the tile's own archive declares, or
	// CopyRegion would stride (or overrun) the decoded slice wrongly.
	shape := arch.Shape()
	if len(shape) != len(rc.lo) {
		return fmt.Errorf("client: chunk %d archive is rank %d, frame says %d", rc.index, len(shape), len(rc.lo))
	}
	for d, e := range shape {
		if e != rc.hi[d]-rc.lo[d] {
			return fmt.Errorf("client: chunk %d archive shape %v does not match frame box [%v, %v)",
				rc.index, shape, rc.lo, rc.hi)
		}
	}
	res, err := arch.Retrieve(fr.plan)
	if err != nil {
		return fmt.Errorf("client: chunk %d: %w", rc.index, err)
	}
	rc.res = res
	reg.assimilate(rc)
	return nil
}

// assimilate copies a tile's overlap with the region into the assembled
// data at the region's native width.
func (reg *Region) assimilate(rc *remoteChunk) {
	clo, chi, ok := store.Intersect(rc.lo, rc.hi, reg.lo, reg.hi)
	if !ok {
		return
	}
	chunkShape := make([]int, len(rc.lo))
	for d := range chunkShape {
		chunkShape[d] = rc.hi[d] - rc.lo[d]
	}
	if reg.data32 != nil {
		store.CopyRegion(reg.data32, reg.shape, reg.lo, core.DataOf[float32](rc.res), chunkShape, rc.lo, clo, chi)
	} else {
		store.CopyRegion(reg.data64, reg.shape, reg.lo, core.DataOf[float64](rc.res), chunkShape, rc.lo, clo, chi)
	}
}

// Scalar returns the region's element type (the dataset's native width).
func (reg *Region) Scalar() core.ScalarType { return reg.scalar }

// Shape returns the region's extents, hi-lo per dimension.
func (reg *Region) Shape() []int { return append([]int(nil), reg.shape...) }

// Lo returns the region's inclusive origin in dataset coordinates.
func (reg *Region) Lo() []int { return append([]int(nil), reg.lo...) }

// Data returns the region's values in row-major order over Shape(), as
// float64. Float32 regions are widened into a fresh copy (lossless); use
// DataFloat32 for the shared native view.
func (reg *Region) Data() []float64 {
	if reg.data32 != nil {
		return grid.WidenSlice(reg.data32)
	}
	return reg.data64
}

// DataFloat32 returns the region's values as float32: the shared native
// slice for float32 datasets (updated in place by Refine), a narrowed
// copy for float64 ones.
func (reg *Region) DataFloat32() []float32 {
	if reg.data32 != nil {
		return reg.data32
	}
	return grid.NarrowSlice(reg.data64)
}

// GuaranteedError is the L∞ bound guaranteed across the region, computed
// from the loading plans of the locally decoded tiles.
func (reg *Region) GuaranteedError() float64 {
	worst := 0.0
	for _, rc := range reg.chunks {
		if g := rc.res.GuaranteedError(); g > worst {
			worst = g
		}
	}
	return worst
}

// Bound returns the tightest absolute bound the server has certified for
// this region (the token's bound).
func (reg *Region) Bound() float64 { return reg.bound }

// Token returns the current retrieval token; Refine sends it
// automatically, but callers sharing state across processes can persist
// it and pass it to a fresh request's refine= parameter themselves.
func (reg *Region) Token() string { return reg.token }

// FetchedBytes reports the cumulative response body bytes this region has
// consumed, across the initial fetch and every refinement.
func (reg *Region) FetchedBytes() int64 { return reg.fetched }

// Chunks reports how many tiles back the region.
func (reg *Region) Chunks() int { return len(reg.chunks) }

// frameReader is the response body as the frame parser reads it:
// buffered, because frame headers are read a field at a time; counting
// what the frames consumed, for FetchedBytes; and aware of how much the
// body can still deliver, so that a length a frame declares is not
// believed — and allocated — before the bytes can be there.
type frameReader struct {
	br   *bufio.Reader
	read int64 // bytes handed to the parser so far
	size int64 // the response's Content-Length, -1 when it declared none
}

// readBuffers recycles the parsers' 64 KiB read buffers across fetches.
var readBuffers = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, 1<<16) }}

func newFrameReader(body io.Reader, contentLength int64) *frameReader {
	br := readBuffers.Get().(*bufio.Reader)
	br.Reset(body)
	return &frameReader{br: br, size: contentLength}
}

// release gives the read buffer back; the reader is spent.
func (f *frameReader) release() {
	f.br.Reset(nil)
	readBuffers.Put(f.br)
	f.br = nil
}

func (f *frameReader) Read(p []byte) (int, error) {
	n, err := f.br.Read(p)
	f.read += int64(n)
	return n, err
}

// payload reads the n payload bytes of a span into a buffer of their own,
// which the tile's sparse source keeps.
func (f *frameReader) payload(n int64) ([]byte, error) {
	if f.size < 0 {
		// A body of undeclared length: the buffer grows with what arrives.
		var buf bytes.Buffer
		if _, err := io.CopyN(&buf, f, n); err != nil {
			return nil, fmt.Errorf("truncated payload: %w", err)
		}
		return buf.Bytes(), nil
	}
	if left := f.size - f.read; n > left {
		return nil, fmt.Errorf("declares %d payload bytes, the response has %d left", n, left)
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(f, b); err != nil {
		return nil, fmt.Errorf("truncated payload: %w", err)
	}
	return b, nil
}
