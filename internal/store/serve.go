package store

import (
	"errors"
	"fmt"

	"repro/internal/core"
)

// ErrBadRefineBase reports a refinement base bound no response could have
// certified — below the dataset's compression bound — i.e. a malformed or
// forged refinement token.
var ErrBadRefineBase = errors.New("store: refinement base bound is below the dataset bound")

// Wire planning: a progressive container is its own network protocol. For
// any (region, error bound) pair the byte ranges a client needs are fully
// determined by the chunk archive headers, so a server can ship exactly
// those ranges — no decoding, no re-encoding — and a client that already
// holds the region at a looser bound needs only the delta planes. This
// file computes those plans; internal/server frames them over HTTP and
// ipcomp/client reassembles them.

// ChunkPlan describes one tile's contribution to a wire response: the
// loading plan the client should hold after applying it, and the byte
// ranges (relative to the tile's archive blob) that must be shipped to get
// there. For a fresh client the spans start with the archive header; for a
// refinement they cover only the newly selected bitplane blocks.
type ChunkPlan struct {
	// Index is the tile's linear index in the dataset's chunk grid, stable
	// across requests — refinement responses identify tiles by it.
	Index int
	// Lo, Hi is the region [lo, hi) the tile covers in dataset coordinates.
	Lo, Hi []int
	// BlobOff, BlobSize locate the tile's archive inside the container.
	// Span offsets are relative to BlobOff.
	BlobOff, BlobSize int64
	// Keep is the loading plan (planes kept per level) after this response.
	Keep []int
	// Guaranteed is the L∞ bound the Keep plan guarantees for this tile.
	Guaranteed float64
	// Spans are the archive byte ranges to ship, coarse level first.
	Spans []core.Span
}

// Bytes returns the payload size of the tile's spans.
func (c *ChunkPlan) Bytes() int64 { return core.SpanBytes(c.Spans) }

// RegionPlan is the wire plan for serving one region at one bound.
type RegionPlan struct {
	Dataset string
	Scalar  core.ScalarType
	Lo, Hi  []int
	// Bound is the normalized absolute bound the plan was computed for
	// (requests may pass 0 for "full fidelity"; this is what that resolved
	// to). It is what a refinement token should carry.
	Bound float64
	// Guaranteed is the worst guaranteed error across every intersecting
	// tile once the plan is applied — including tiles the response omits
	// because the client already holds them at sufficient fidelity.
	Guaranteed float64
	// Chunks lists the tiles with bytes to ship. Tiles whose delta is
	// empty (refinement already satisfied) are omitted.
	Chunks []ChunkPlan
}

// Bytes returns the total payload size of the plan.
func (p *RegionPlan) Bytes() int64 {
	var n int64
	for i := range p.Chunks {
		n += p.Chunks[i].Bytes()
	}
	return n
}

// PlanRegion computes the byte ranges needed to serve the box [lo, hi) of
// the named dataset at the given absolute bound (0 means full fidelity),
// for a client that already holds the same region at haveBound (0 means a
// fresh client). Only tile archive headers are read — nothing is decoded —
// so serving compressed planes costs the server no compression work at
// all; each tile is admitted to the tile cache, which keeps its header and
// the spans ReadSpan reads. Plans are deterministic: the same archive and
// bound always select the same planes, which is what makes stateless
// refinement tokens possible.
func (s *Store) PlanRegion(name string, lo, hi []int, bound, haveBound float64) (*RegionPlan, error) {
	ds, ok := s.datasets[name]
	if !ok {
		return nil, fmt.Errorf("store: no dataset %q (have %v)", name, s.order)
	}
	if err := validateRegion(ds.shape, lo, hi); err != nil {
		return nil, err
	}
	if bound == 0 {
		bound = ds.eb
	}
	if bound < ds.eb {
		return nil, core.ErrBoundTooTight
	}
	fresh := haveBound <= 0
	if !fresh && haveBound < ds.eb {
		return nil, fmt.Errorf("%w (%g < %g)", ErrBadRefineBase, haveBound, ds.eb)
	}

	chunks := ds.til.intersectingInto(nil, lo, hi)
	plans := make([]ChunkPlan, len(chunks))
	skip := make([]bool, len(chunks))
	guaranteed := make([]float64, len(chunks))
	err := core.ParallelForErr(len(chunks), func(i int) error {
		ci := chunks[i]
		rec := &ds.chunks[ci]
		// Planning admits the tile, charged for the bytes it reads: its
		// header now, and the spans a planes response reads through the
		// entry later; a later decode upgrades the same entry in place.
		// openChunkArchive is lock-free, so a planes request never queues
		// behind a concurrent raw request's decode of the same tile.
		key := s.tileKey(ds, ci)
		entry := s.cache.acquire(key, s.tileBlob(ds, ci, key), 0)
		arch, err := s.openChunkArchive(entry, ds, ci)
		if err != nil {
			return fmt.Errorf("store: dataset %q chunk %d: %w", ds.name, ci, err)
		}
		planNew, err := arch.PlanErrorBoundMode(bound)
		if err != nil {
			return fmt.Errorf("store: dataset %q chunk %d: %w", ds.name, ci, err)
		}
		from := core.Plan{}
		if !fresh {
			if from, err = arch.PlanErrorBoundMode(haveBound); err != nil {
				return fmt.Errorf("store: dataset %q chunk %d: %w", ds.name, ci, err)
			}
		}
		spans := arch.PlanSpans(from, planNew)
		if fresh {
			// A fresh client needs the header to open the archive at all.
			// Blocks start right where the header ends, so this almost
			// always coalesces the whole response into one range.
			head := core.Span{Off: 0, Len: arch.HeaderSize()}
			if len(spans) > 0 && spans[0].Off == head.Len {
				spans[0] = core.Span{Off: 0, Len: head.Len + spans[0].Len}
			} else {
				spans = append([]core.Span{head}, spans...)
			}
		}
		guaranteed[i] = arch.PlanErrorBound(planNew)
		if !fresh && len(spans) == 0 {
			skip[i] = true // client already holds everything this plan needs
			return nil
		}
		plans[i] = ChunkPlan{
			Index:      ci,
			Lo:         append([]int(nil), rec.lo...),
			Hi:         append([]int(nil), rec.hi...),
			BlobOff:    rec.off,
			BlobSize:   rec.size,
			Keep:       planNew.Keep,
			Guaranteed: guaranteed[i],
			Spans:      spans,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	rp := &RegionPlan{
		Dataset: ds.name,
		Scalar:  ds.scalar,
		Lo:      append([]int(nil), lo...),
		Hi:      append([]int(nil), hi...),
		Bound:   bound,
	}
	for i := range chunks {
		if guaranteed[i] > rp.Guaranteed {
			rp.Guaranteed = guaranteed[i]
		}
		if !skip[i] {
			rp.Chunks = append(rp.Chunks, plans[i])
		}
	}
	return rp, nil
}

// ReadSpan returns the bytes of sp, a span of chunk ci of the named
// dataset as a ChunkPlan gives it, through the tile's cache entry: from
// the bytes it holds, or fetched from the container's source and kept.
// trace (may be "") rides the fetch when the source propagates it (an
// HTTP origin behind backend.Cached), so an edge node's reads stitch into
// the client's trace. The slice must not be written to.
func (s *Store) ReadSpan(name string, ci int, sp core.Span, trace string) ([]byte, error) {
	ds, ok := s.datasets[name]
	if !ok {
		return nil, fmt.Errorf("store: no dataset %q (have %v)", name, s.order)
	}
	if ci < 0 || ci >= len(ds.chunks) {
		return nil, fmt.Errorf("store: dataset %q has no chunk %d", name, ci)
	}
	key := s.tileKey(ds, ci)
	return s.cache.acquire(key, s.tileBlob(ds, ci, key), 0).read(sp.Off, sp.Len, trace)
}

// ReadRange returns n container bytes starting at absolute offset off,
// bounds-checked against the container size. It reads the container's
// source directly and keeps nothing; a planes response reads its spans
// through the tile cache instead (ReadSpan).
func (s *Store) ReadRange(off, n int64) ([]byte, error) {
	// Subtraction, not off+n: crafted offsets near 2^63 must not overflow
	// past the check.
	if off < 0 || n < 0 || off > s.size || n > s.size-off {
		return nil, fmt.Errorf("store: read [%d,%d) outside container of %d bytes", off, off+n, s.size)
	}
	buf := make([]byte, n)
	if _, err := s.src.ReadAt(buf, off); err != nil {
		return nil, err
	}
	return buf, nil
}
