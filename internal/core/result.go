package core

import (
	"fmt"
	"time"

	"repro/internal/codec"
	"repro/internal/grid"
)

// Result is a progressive reconstruction: the decompressed field at some
// fidelity plus the state needed to refine it in place by loading further
// bitplanes (paper Algorithm 2). The field is held at the archive's native
// scalar width — exactly one of the two backing slices is non-nil — and is,
// however the result reached its plan, bit for bit what Retrieve(Plan())
// returns. Besides the values, a result below full fidelity keeps the
// planes it has decoded, a bit per value and plane; one at full fidelity,
// with nothing left to load, keeps none. Nothing else it holds grows with
// the field.
type Result struct {
	arch   *Archive
	plan   Plan
	data64 []float64 // float64 archives
	data32 []float32 // float32 archives
	// planes has a slot for every stored plane of every level
	// (header.levelSlots), of which each level's first plan.Keep hold its
	// decoded planes: what rebuild merges, a block at a time, and all a
	// refinement keeps of what it loaded before. A raise decodes its new
	// planes into the slots after them. nil at full fidelity.
	planes []byte
	// loadedBytes counts every archive byte read so far, header included.
	loadedBytes int64
	// stats, when non-nil, receives span-read and codec-decode timings
	// from fetch (see DecodeStats).
	stats *DecodeStats
}

// Scalar returns the element type of the reconstruction.
func (r *Result) Scalar() ScalarType { return r.arch.h.scalar }

// NumElements returns the reconstruction's element count.
func (r *Result) NumElements() int {
	if r.data32 != nil {
		return len(r.data32)
	}
	return len(r.data64)
}

// Grid returns the reconstructed field wrapped in a float64 grid. For
// float64 archives the backing slice is shared with the result (refinement
// updates it in place); float32 archives are widened into a fresh copy.
func (r *Result) Grid() *grid.Grid[float64] {
	g, err := grid.FromSlice(r.Data(), r.arch.Shape())
	if err != nil {
		panic(err) // shape came from the archive; cannot mismatch
	}
	return g
}

// Data returns the reconstructed values in row-major order as float64.
// For float64 archives this is the shared backing slice; for float32
// archives it is a widened (lossless) copy that does not observe later
// refinement — use DataFloat32 for the shared native view.
func (r *Result) Data() []float64 {
	if r.data32 != nil {
		return grid.WidenSlice(r.data32)
	}
	return r.data64
}

// DataFloat32 returns the reconstructed values as float32. For float32
// archives this is the shared backing slice (refinement mutates it in
// place); for float64 archives it is a narrowed, precision-losing copy.
func (r *Result) DataFloat32() []float32 {
	if r.data32 != nil {
		return r.data32
	}
	return grid.NarrowSlice(r.data64)
}

// DataOf returns the reconstruction as a []T: the shared native backing
// slice when T matches the archive's scalar type, otherwise a converted
// copy (widening a float32 archive to float64 is lossless; the reverse
// narrows). Callers that refine in place and re-read — like the store's
// chunk cache — must use the archive's native type.
func DataOf[T grid.Scalar](r *Result) []T {
	if ScalarOf[T]() == Float32 {
		return any(r.DataFloat32()).([]T)
	}
	return any(r.Data()).([]T)
}

// setData installs the backing slice for the result's scalar type.
func setData[T grid.Scalar](r *Result, data []T) {
	switch d := any(data).(type) {
	case []float32:
		r.data32 = d
	case []float64:
		r.data64 = d
	}
}

// LoadedBytes reports how many archive bytes have been read for this result
// so far, including the header and all refinements.
func (r *Result) LoadedBytes() int64 { return r.loadedBytes }

// Bitrate reports the loaded bits per value.
func (r *Result) Bitrate() float64 {
	return float64(r.loadedBytes) * 8 / float64(r.NumElements())
}

// GuaranteedError returns the L∞ bound that the current plan guarantees.
func (r *Result) GuaranteedError() float64 { return r.arch.PlanErrorBound(r.plan) }

// RetrieveAll loads every block and reconstructs at full fidelity (error
// within the compression bound eb).
func (a *Archive) RetrieveAll() (*Result, error) { return a.Retrieve(a.fullPlan()) }

// RetrieveErrorBound reconstructs with the cheapest plan guaranteeing the
// given absolute L∞ bound (error-bound mode, paper §5.2).
func (a *Archive) RetrieveErrorBound(bound float64) (*Result, error) {
	return a.RetrieveErrorBoundStats(bound, nil)
}

// RetrieveBitrate reconstructs with the most accurate plan that loads at
// most the given number of bits per value (fixed-rate mode, paper §5.3).
func (a *Archive) RetrieveBitrate(bitsPerValue float64) (*Result, error) {
	n := a.h.shape.Len()
	maxBytes := int64(bitsPerValue * float64(n) / 8)
	plan, err := a.PlanBitrateMode(maxBytes)
	if err != nil {
		return nil, err
	}
	return a.Retrieve(plan)
}

// Retrieve reconstructs according to an explicit plan (Algorithm 1), at the
// archive's native scalar width.
func (a *Archive) Retrieve(plan Plan) (*Result, error) {
	if a.h.scalar == Float32 {
		return retrieveStatsAs[float32](a, plan, nil)
	}
	return retrieveStatsAs[float64](a, plan, nil)
}

func retrieveStatsAs[T grid.Scalar](a *Archive, plan Plan, st *DecodeStats) (*Result, error) {
	if len(plan.Keep) != a.h.levels {
		return nil, fmt.Errorf("core: plan has %d levels, archive %d", len(plan.Keep), a.h.levels)
	}
	for l := 1; l <= a.h.levels; l++ {
		m := a.h.metaOf(l)
		// The kernels below index level buffers by the decomposition's
		// closed-form counts; an archive whose header disagrees is corrupt.
		if want := a.dec.LevelCount(l); m.count != want {
			return nil, fmt.Errorf("core: level %d has %d points, header says %d", l, want, m.count)
		}
		// The outlier patch (applyLines) assumes a sorted, in-range table;
		// reject corrupt headers here, once, so retrieval and refinement
		// fail loudly instead of silently mis-reconstructing.
		prev := -1
		for _, oi := range m.outlierIdx {
			if int(oi) >= m.count || int(oi) <= prev {
				return nil, fmt.Errorf("core: level %d outlier table corrupt at index %d", l, oi)
			}
			prev = int(oi)
		}
	}
	if len(a.h.anchors) < len(a.dec.Anchors()) {
		return nil, fmt.Errorf("core: anchor table too short")
	}
	r := &Result{
		arch:        a,
		plan:        Plan{Keep: make([]int, a.h.levels)}, // raised by raise
		loadedBytes: a.h.headerSize,
		stats:       st,
	}
	if err := raise[T](r, plan, nil); err != nil {
		return nil, err
	}
	return r, nil
}

// RetainedBytes reports the bytes of the result's backings: its values
// and, below full fidelity, its decoded planes. It is what a cache that
// holds the result keeps alive, so it counts their capacities: a backing
// from the scratch pools may be up to twice what it holds. A released
// result retains nothing.
func (r *Result) RetainedBytes() int64 {
	return int64(cap(r.data64)*8 + cap(r.data32)*4 + cap(r.planes))
}

// Release hands the result's values and planes to the scratch pools
// (PutScratch), where a later retrieval or compression takes them, and
// leaves the result empty. Nothing may use the result after it, nor any
// slice it shared (Data and Grid of a float64 result, DataFloat32 of a
// float32 one, DataOf of the native type). A program that keeps its
// results need not call it; the store's tile cache calls it on the tiles
// it evicts, so that a steady stream of cold tiles decodes into the
// memory of the tiles they displace.
func (r *Result) Release() {
	PutScratch(r.data32)
	PutScratch(r.data64)
	PutScratch(r.planes)
	r.data32, r.data64, r.planes = nil, nil, nil
}

// rebuild reruns the reconstruction recursion into data from each level's
// loaded planes — keep[l-1] of them, in the level's slots of planes —
// level `from` first and the finest last; from = L, the coarsest level,
// places the anchors before it. It is the body of Retrieve and of RefineTo:
// the field is a function of the archive and the loaded planes alone.
// applyLevel assigns every point of its level from coarser points and the
// level's own planes, so the anchors and the levels coarser than `from`,
// whose planes have not changed, already hold their bits.
func rebuild[T grid.Scalar](a *Archive, data []T, planes []byte, keep []int, from int) {
	if from == a.h.levels {
		for i, f := range a.dec.Anchors() {
			data[f] = T(a.h.anchors[i])
		}
	}
	for l := from; l >= 1; l-- {
		applyLevel(a, data, l, a.h.levelSlots(planes, l), keep[l-1])
	}
}

// keepOf is the plane count plan asks of level l: a non-progressive level
// always loads all of its planes.
func (a *Archive) keepOf(plan Plan, l int) int {
	if l > a.h.prog {
		return a.h.metaOf(l).usedPlanes
	}
	return plan.Keep[l-1]
}

// raise brings r to plan (clamped: it never drops a plane) and rebuilds
// its values: Algorithm 2 for a loaded result, and Algorithm 1 from an
// empty one (data nil), which is what Retrieve is. Both are one shape:
// fetch decodes the new planes into their slots of the result's plane
// backing, and rebuild runs from the coarsest level that gained planes over
// every plane loaded. Everything that can fail runs in fetch, for every
// level, before anything the result shows changes: the new planes land in
// slots past each level's plan.Keep, which rebuild does not read, so a
// refinement either happens in full or leaves the result at its old plan
// with its old values and guarantee.
//
// A retrieval takes its value and plane backings from the scratch pools,
// the values while the planes decode, as one more job of their fan-out
// (fetch). A result that ends with every plane of every level loaded
// keeps no planes: a retrieval of every plane gives its backing back to
// the pools once it has rebuilt, and a refinement that gets there drops
// its backing to the collector, never to a pool, where it would outlive
// the results that need it.
func raise[T grid.Scalar](r *Result, plan Plan, data []T) error {
	a := r.arch
	if data != nil && r.planes == nil {
		return nil // at full fidelity: nothing left to load
	}
	full := true
	for l := 1; l <= a.h.levels; l++ {
		have, want := r.newPlanes(l, a.keepOf(plan, l))
		full = full && max(have, want) == a.h.metaOf(l).usedPlanes
	}
	planes := r.planes
	if planes == nil {
		planes = GetScratch[byte](a.h.planeSlots())
		if full {
			// A retrieval of every plane holds them only while it rebuilds.
			defer PutScratch(planes)
		}
	}
	var alloc func()
	if data == nil {
		alloc = func() { setData(r, GetScratch[T](a.h.shape.Len())) }
	}
	from, err := r.fetch(plan, planes, alloc)
	if err != nil {
		return err
	}
	if data == nil {
		data, from = DataOf[T](r), a.h.levels
	}
	for l := 1; l <= a.h.levels; l++ {
		r.raised(l, a.keepOf(plan, l))
	}
	rebuild(a, data, planes, r.plan.Keep, from)
	if full {
		planes = nil // nothing left to refine: to the collector
	}
	r.planes = planes
	return nil
}

// newPlanes clamps want to the level's stored planes and reports the
// half-open range [have, want) of planes a raise to want still has to load.
func (r *Result) newPlanes(level, want int) (have, to int) {
	if used := r.arch.h.metaOf(level).usedPlanes; want > used {
		want = used
	}
	return r.plan.Keep[level-1], want
}

// fetch is the half of a raise to plan that can fail: it reads every
// level's new blocks and entropy-decodes them into their slots of planes,
// a backing of header.planeSlots bytes. from is the coarsest level that
// gains planes, 0 for none. DecodeBlockInto writes every byte of its plane
// whatever the block's method, so a slot needs no zeroing. fetch changes
// nothing that rebuild reads or the result reports, so a refinement that
// fails here, on any level, leaves the result exactly at its previous plan
// and can simply be tried again.
//
// A level's blocks are adjacent in the archive (plan-ordered layout), so
// they arrive as one span read; then every plane of every level inflates in
// one fan-out, the blocks being independent. alongside, when not nil, is
// one more job of that fan-out, taken first: a retrieval's backings are
// allocated by one goroutine while the others decode.
func (r *Result) fetch(plan Plan, planes []byte, alongside func()) (from int, err error) {
	a := r.arch
	spans := make([]planeSpan, 0, a.h.levels)
	defer func() {
		for _, sp := range spans {
			sp.release()
		}
	}()
	var readT time.Time
	if r.stats != nil {
		readT = time.Now()
	}
	jobs := 0
	for l := a.h.levels; l >= 1; l-- {
		have, want := r.newPlanes(l, a.keepOf(plan, l))
		if want <= have {
			continue
		}
		off, size := a.h.planeSpan(l, have, want)
		raw, release, err := readSpan(a.src, off, int(size))
		if err != nil {
			return 0, err
		}
		spans = append(spans, planeSpan{level: l, have: have, first: jobs, off: off, raw: raw, release: release})
		jobs += want - have
		from = max(from, l)
	}
	if r.stats != nil {
		r.stats.ReadNanos.Add(time.Since(readT).Nanoseconds())
	}
	var ferr firstError
	var codecT time.Time
	if r.stats != nil {
		codecT = time.Now()
	}
	extra := 0
	if alongside != nil {
		extra = 1
	}
	ParallelFor(jobs+extra, func(i int) {
		if i -= extra; i < 0 {
			alongside()
			return
		}
		k := len(spans) - 1
		for spans[k].first > i {
			k--
		}
		sp := &spans[k]
		m := a.h.metaOf(sp.level)
		p := sp.have + i - sp.first
		at := int(a.h.blockOff[sp.level-1][p] - sp.off)
		plane := m.plane(a.h.levelSlots(planes, sp.level), p)
		if err := codec.DecodeBlockInto(plane, sp.raw[at:at+int(m.blockSizes[p])]); err != nil {
			ferr.set(fmt.Errorf("core: level %d plane %d: %w", sp.level, p, err))
		}
	})
	if r.stats != nil {
		r.stats.CodecNanos.Add(time.Since(codecT).Nanoseconds())
	}
	if err := ferr.get(); err != nil {
		return 0, err
	}
	return from, nil
}

// planeSpan is one level's new blocks as fetch read them: planes
// [have, …) of the level, the fan-out's jobs from first on.
type planeSpan struct {
	level, have, first int
	off                int64
	raw                []byte
	release            func()
}

// raised records that level l now holds planes [0, want): the new plane
// count and the bytes the raise read. A level that gains nothing is left
// alone.
func (r *Result) raised(level, want int) {
	have, want := r.newPlanes(level, want)
	if want <= have {
		return
	}
	_, spanLen := r.arch.h.planeSpan(level, have, want)
	r.loadedBytes += spanLen
	r.plan.Keep[level-1] = want
}

// RefineTo raises the result to a finer plan in place (Algorithm 2): only
// the newly selected bitplanes are read and entropy-decoded. The
// reconstruction recursion then reruns from the coarsest level that gained
// planes over every plane loaded, as a retrieval of the plan would, at
// either scalar width, so a
// refined result is bit for bit the fresh retrieval of its plan — a
// function of (archive, plan) and of nothing that came before — and never
// carries error beyond what PlanErrorBound models for that plan.
//
// Plans that would *drop* planes at some level are clamped: progressive
// retrieval only ever adds information.
func (r *Result) RefineTo(plan Plan) error {
	if len(plan.Keep) != r.arch.h.levels {
		return fmt.Errorf("core: plan has %d levels, archive %d", len(plan.Keep), r.arch.h.levels)
	}
	if r.data32 == nil && r.data64 == nil {
		return fmt.Errorf("core: refining a released result")
	}
	if r.data32 != nil {
		return raise(r, plan, r.data32)
	}
	return raise(r, plan, r.data64)
}

// RefineErrorBound refines the result so the guaranteed error drops to the
// given bound, loading only the additional bitplanes the optimizer selects.
func (r *Result) RefineErrorBound(bound float64) error {
	plan, err := r.arch.PlanErrorBoundMode(bound)
	if err != nil {
		return err
	}
	return r.RefineTo(plan)
}

// RefineBitrate refines the result up to a total loaded bitrate budget
// (bits per value, counting what has already been loaded).
func (r *Result) RefineBitrate(bitsPerValue float64) error {
	n := r.NumElements()
	maxBytes := int64(bitsPerValue * float64(n) / 8)
	plan, err := r.arch.PlanBitrateMode(maxBytes)
	if err != nil {
		return err
	}
	return r.RefineTo(plan) // clamped: never drops below the current plan
}

// RefineAll loads every remaining block, reaching full fidelity.
func (r *Result) RefineAll() error { return r.RefineTo(r.arch.fullPlan()) }
