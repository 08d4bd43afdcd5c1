package store

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sort"

	"repro/internal/cas"
	"repro/internal/core"
	"repro/internal/grid"
)

// CAS-backed containers: a cas.Manifest plus the blobs it references are
// exactly the information a container index carries, so a snapshot can be
// presented as a well-formed, read-only container — preamble, tile blobs
// at synthetic offsets, index, footer — behind io.ReaderAt, with the blob
// byte ranges resolved through the CAS (score-verified on first touch)
// and the framing bytes synthesized in memory. Everything above
// io.ReaderAt (region retrieval, progressive planes planning, raw
// re-export, edge proxying) then serves snapshots with zero new code.

// PackSnapshot compresses a field's grid tile-by-tile (the same engine
// and geometry as Writer.Add) and stages it in the CAS as the field's
// next snapshot. The returned manifest is the staged snapshot's; stats
// report how many blobs were new versus deduplicated against earlier
// snapshots.
//
// A write costs what changed: every staged tile is fingerprinted first
// (see tilePrint), and a tile whose fingerprint the CAS remembers from the
// field's latest snapshot is not compressed — the compressor is
// deterministic, so its blob is the one already stored, and the manifest
// references that. Manifests and blobs are byte for byte what compressing
// every tile would have produced.
func PackSnapshot[T grid.Scalar](c *cas.Store, field string, g *grid.Grid[T], opt WriteOptions) (*cas.Manifest, cas.PutStats, error) {
	if err := cas.ValidateField(field); err != nil {
		return nil, cas.PutStats{}, err
	}
	til, err := tilingFor(g.Shape(), opt)
	if err != nil {
		return nil, cas.PutStats{}, err
	}
	prev := c.Prints(field)
	prints := make([]cas.Fingerprint, til.n)
	blobs, err := compressTiles(field, g, til, opt, func(i int, tile *grid.Grid[T]) bool {
		prints[i] = tilePrint(tile, opt)
		return i < len(prev) && prev[i] == prints[i]
	})
	if err != nil {
		return nil, cas.PutStats{}, err
	}
	m := &cas.Manifest{
		Field:      field,
		T:          c.NextT(field),
		Shape:      append([]int(nil), til.shape...),
		Chunk:      append([]int(nil), til.chunk...),
		Scalar:     uint8(core.ScalarOf[T]()),
		ErrorBound: opt.ErrorBound,
	}
	for {
		st, stale, err := c.PutPrinted(m, blobs, prints)
		if err != nil {
			return nil, st, err
		}
		if len(stale) == 0 {
			return m, st, nil
		}
		// The CAS no longer holds what it remembered for these tiles
		// (Delete and GC dropped the last reference since): compress them
		// after all. Every round leaves fewer tiles without a blob.
		redo := make(map[int]bool, len(stale))
		for _, i := range stale {
			redo[i] = true
		}
		fresh, err := compressTiles(field, g, til, opt, func(i int, _ *grid.Grid[T]) bool { return !redo[i] })
		if err != nil {
			return nil, cas.PutStats{}, err
		}
		for _, i := range stale {
			blobs[i] = fresh[i]
		}
	}
}

// tilePrint fingerprints a staged tile: SHA-256 over everything
// core.Compress is given — the bound, the predictor, the progressive
// threshold, the scalar width, the extents — and then the values bit for
// bit, so -0.0 and a NaN's payload count as changes. It
// lives for one process (cas.Store never writes it), which is why host
// byte order is good enough.
func tilePrint[T grid.Scalar](tile *grid.Grid[T], opt WriteOptions) cas.Fingerprint {
	raw := grid.Bytes(tile.Data())
	hdr := make([]byte, 0, 64)
	hdr = binary.LittleEndian.AppendUint64(hdr, math.Float64bits(opt.ErrorBound))
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(opt.ProgressiveThreshold))
	hdr = append(hdr, byte(opt.Interpolation), byte(len(raw)/tile.Len()), byte(tile.NDims()))
	for _, n := range tile.Shape() {
		hdr = binary.LittleEndian.AppendUint64(hdr, uint64(n))
	}
	h := sha256.New()
	h.Write(hdr)
	h.Write(raw)
	var p cas.Fingerprint
	h.Sum(p[:0])
	return p
}

// SeriesBound resolves the absolute error bound a field's next snapshot
// is compressed under from what its writer gave. eb is the bound given
// with this snapshot, 0 for none: the series' own bound then carries over
// from prev, the field's latest manifest (nil for a new field, which must
// give one). rel scales an eb given with this snapshot by the grid's value
// range; it is refused without one, because the inherited bound is already
// absolute and scaling it by the range again would silently change it.
func SeriesBound[T grid.Scalar](g *grid.Grid[T], prev *cas.Manifest, eb float64, rel bool) (float64, error) {
	switch {
	case eb != 0 && rel:
		if r := g.ValueRange(); r > 0 {
			return eb * r, nil
		}
		return eb, nil
	case eb != 0:
		return eb, nil
	case prev == nil:
		return 0, fmt.Errorf("eb is required (the error bound, e.g. eb=1e-6)")
	case rel:
		return 0, fmt.Errorf("rel applies to an eb given with the same snapshot; the series' own bound is already absolute")
	}
	return prev.ErrorBound, nil
}

// snapshotReaderAt presents one snapshot as a container image: head
// (preamble) and tail (index+footer) bytes synthesized once, tile blob
// ranges read through the CAS on demand.
type snapshotReaderAt struct {
	c    *cas.Store
	m    *cas.Manifest
	head []byte  // the preamble, at offset 0
	tail []byte  // index+footer, at tailOff
	offs []int64 // per-tile start offset, ascending; len == len(m.Tiles)
	size int64
}

// snapshotContainer synthesizes the container image of a snapshot.
func snapshotContainer(c *cas.Store, m *cas.Manifest) (*snapshotReaderAt, error) {
	scalar := core.ScalarType(m.Scalar)
	if scalar != core.Float64 && scalar != core.Float32 {
		return nil, fmt.Errorf("store: snapshot %s has unknown scalar type %d", m.Name(), m.Scalar)
	}
	til, err := newTiling(m.Shape, m.Chunk)
	if err != nil {
		return nil, err
	}
	if til.n != len(m.Tiles) {
		return nil, fmt.Errorf("store: snapshot %s has %d tiles, tiling implies %d", m.Name(), len(m.Tiles), til.n)
	}
	ds := &datasetMeta{
		name:   m.Name(),
		shape:  append(grid.Shape(nil), m.Shape...),
		chunk:  append(grid.Shape(nil), m.Chunk...),
		scalar: scalar,
		eb:     m.ErrorBound,
		til:    til,
		chunks: make([]chunkRecord, til.n),
	}
	r := &snapshotReaderAt{c: c, m: m, head: marshalPreamble(), offs: make([]int64, til.n)}
	off := int64(preambleSize)
	for i := range m.Tiles {
		lo, hi := til.box(i)
		r.offs[i] = off
		ds.chunks[i] = chunkRecord{off: off, size: m.Tiles[i].Size, lo: lo, hi: hi, maxErr: m.ErrorBound}
		off += m.Tiles[i].Size
	}
	version := indexVersion([]*datasetMeta{ds})
	index := marshalIndex([]*datasetMeta{ds}, version)
	r.tail = append(index, marshalFooter(off, int64(len(index)), version)...)
	r.size = off + int64(len(r.tail))
	return r, nil
}

// ReadAt implements io.ReaderAt over the container image; reads may span
// the preamble, any number of blobs, and the tail.
func (r *snapshotReaderAt) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 || off > r.size {
		return 0, fmt.Errorf("store: read at %d outside snapshot container of %d bytes", off, r.size)
	}
	n := 0
	for len(p) > 0 {
		if off == r.size {
			return n, io.EOF
		}
		var k int
		var err error
		tailOff := r.size - int64(len(r.tail))
		switch {
		case off < int64(len(r.head)):
			k = copy(p, r.head[off:])
		case off >= tailOff:
			k = copy(p, r.tail[off-tailOff:])
		default:
			// Binary search for the blob containing off: the first tile
			// starting after off, minus one.
			i := sort.Search(len(r.offs), func(i int) bool { return r.offs[i] > off }) - 1
			span := r.m.Tiles[i].Size - (off - r.offs[i])
			k = len(p)
			if int64(k) > span {
				k = int(span)
			}
			k, err = r.c.ReadBlobAt(r.m.Tiles[i].Score, p[:k], off-r.offs[i])
		}
		n += k
		off += int64(k)
		p = p[k:]
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// blobReaderAt reads one blob of a CAS by its score: what a content-keyed
// tile cache entry decodes and refines from, whichever snapshots reference
// the blob at the time.
type blobReaderAt struct {
	c     *cas.Store
	score cas.Score
}

func (b blobReaderAt) ReadAt(p []byte, off int64) (int, error) {
	return b.c.ReadBlobAt(b.score, p, off)
}

// OpenSnapshot opens one snapshot of a CAS as a read-only Store. The
// snapshot may still be staged in the open epoch (reads come from
// memory) or sealed (reads come from score-verified blob files); the
// same Store remains valid across the seal. Its decoded tiles are cached
// under their blobs' scores: attach one TileCache to every snapshot of a
// series (Store.SetTileCache) and a tile that did not change between two
// snapshots is decoded once for both.
func OpenSnapshot(c *cas.Store, field string, t int) (*Store, error) {
	m, ok := c.Manifest(field, t)
	if !ok {
		return nil, fmt.Errorf("store: no snapshot %s in CAS %s", cas.SnapshotName(field, t), c.Dir())
	}
	r, err := snapshotContainer(c, m)
	if err != nil {
		return nil, err
	}
	// Open re-parses the synthetic index — the same validation path real
	// containers go through, so a malformed manifest cannot reach the
	// retrieval machinery.
	s, err := Open(r, r.size)
	if err != nil {
		return nil, err
	}
	s.snap = r
	return s, nil
}
