package core

import (
	"fmt"
	"time"

	"repro/internal/bitplane"
	"repro/internal/codec"
	"repro/internal/grid"
	"repro/internal/nb"
)

// Result is a progressive reconstruction: the decompressed field at some
// fidelity plus the state needed to refine it in place by loading further
// bitplanes (paper Algorithm 2). The field is held at the archive's native
// scalar width — exactly one of the two backing slices is non-nil — and is,
// however the result reached its plan, bit for bit what Retrieve(Plan())
// returns.
type Result struct {
	arch   *Archive
	plan   Plan
	data64 []float64 // float64 archives
	data32 []float32 // float32 archives
	// planes[l-1][p] is the decoded (post-XOR-prediction) packed bitplane p
	// of level l, nil when not yet loaded. Kept so refinement can undo the
	// predictive coding of newly loaded planes without re-reading old ones.
	planes [][][]byte
	// trunc[l-1] is each level's current truncated quantization index
	// (decoded from the loaded planes): what rebuild reconstructs from.
	trunc [][]int32
	// loadedBytes counts every archive byte read so far, header included.
	loadedBytes int64
	// stats, when non-nil, receives span-read and codec-decode timings
	// from loadPlanes (see DecodeStats).
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

// Plan returns a copy of the current loading plan.
func (r *Result) Plan() Plan { return r.plan.clone() }

// RetrieveAll loads every block and reconstructs at full fidelity (error
// within the compression bound eb).
func (a *Archive) RetrieveAll() (*Result, error) { return a.Retrieve(a.fullPlan()) }

// RetrieveErrorBound reconstructs with the cheapest plan guaranteeing the
// given absolute L∞ bound (error-bound mode, paper §5.2).
func (a *Archive) RetrieveErrorBound(bound float64) (*Result, error) {
	plan, err := a.PlanErrorBoundMode(bound)
	if err != nil {
		return nil, err
	}
	return a.Retrieve(plan)
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
	r := &Result{
		arch:        a,
		plan:        Plan{Keep: make([]int, a.h.levels)}, // raised by loadPlanes
		planes:      make([][][]byte, a.h.levels),
		trunc:       make([][]int32, a.h.levels),
		loadedBytes: a.h.headerSize,
		stats:       st,
	}
	for l := 1; l <= a.h.levels; l++ {
		m := a.h.metaOf(l)
		// The kernels below index level buffers by the decomposition's
		// closed-form counts; an archive whose header disagrees is corrupt.
		if want := a.dec.LevelCount(l); m.count != want {
			return nil, fmt.Errorf("core: level %d has %d points, header says %d", l, want, m.count)
		}
		// The outlier cursor (applyLevel) assumes a sorted, in-range table;
		// reject corrupt headers here, once, so retrieval and refinement
		// fail loudly instead of silently mis-reconstructing.
		prev := -1
		for _, oi := range m.outlierIdx {
			if int(oi) >= m.count || int(oi) <= prev {
				return nil, fmt.Errorf("core: level %d outlier table corrupt at index %d", l, oi)
			}
			prev = int(oi)
		}
		r.planes[l-1] = make([][]byte, m.usedPlanes)
		r.trunc[l-1] = make([]int32, m.count)
		// Non-progressive levels always load everything.
		want := plan.Keep[l-1]
		if l > a.h.prog {
			want = m.usedPlanes
		}
		if err := r.loadPlanes(l, want); err != nil {
			return nil, err
		}
	}

	// Algorithm 1: place anchors, then predict level by level, coarse to
	// fine, adding each level's dequantized (possibly truncated) residual.
	// Each level runs through the fused pass kernel, sharded across cores.
	if len(a.h.anchors) < len(a.dec.Anchors()) {
		return nil, fmt.Errorf("core: anchor table too short")
	}
	// Allocated only now: a header whose shape its own level tables do not
	// bear out has been refused above, before the shape sized anything.
	data := make([]T, a.h.shape.Len())
	setData(r, data)
	rebuild(a, data, r.trunc)
	return r, nil
}

// rebuild reruns the full reconstruction recursion (anchors, then every
// level coarse to fine) into data from the current truncated indices. It is
// the body of Retrieve and of RefineTo: the field is a function of the
// archive and these indices alone.
func rebuild[T grid.Scalar](a *Archive, data []T, trunc [][]int32) {
	for i, idx := range a.dec.Anchors() {
		data[idx] = T(a.h.anchors[i])
	}
	for l := a.h.levels; l >= 1; l-- {
		applyLevel(a, data, l, trunc[l-1])
	}
}

// loadPlanes raises level l's loaded plane count to want: fetchPlanes, then
// mergePlanes.
func (r *Result) loadPlanes(level, want int) error {
	if err := r.fetchPlanes(level, want); err != nil {
		return err
	}
	r.mergePlanes(level, want)
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

// fetchPlanes is the half of a raise that can fail: it reads the blocks of
// planes [have, want) of a level and entropy-decodes them into r.planes.
// Nothing the result's values, plan or guarantee are computed from changes
// — slots of r.planes at and beyond the plan's count are not read by
// anything — so a refinement that fails here, on any level, leaves the
// result exactly at its previous plan and can simply be tried again.
func (r *Result) fetchPlanes(level, want int) error {
	a := r.arch
	m := a.h.metaOf(level)
	have, want := r.newPlanes(level, want)
	if want <= have {
		return nil
	}
	// The blocks [have, want) are adjacent in the archive (plan-ordered
	// layout), so they arrive as one span read — one syscall, one pooled
	// buffer — then inflate concurrently; blocks are independent.
	planeBytes := (m.count + 7) / 8
	offs := a.h.blockOff[level-1]
	spanOff, spanLen := a.h.planeSpan(level, have, want)
	var readT time.Time
	if r.stats != nil {
		readT = time.Now()
	}
	raw, release, err := readSpan(a.src, spanOff, int(spanLen))
	if r.stats != nil {
		r.stats.ReadNanos.Add(time.Since(readT).Nanoseconds())
	}
	if err != nil {
		return err
	}
	defer release()
	var ferr firstError
	var codecT time.Time
	if r.stats != nil {
		codecT = time.Now()
	}
	// One allocation holds every plane of the raise. Its size is bounded by
	// checks already made: m.count is the decomposition's own count for the
	// level (retrieveStatsAs) and a level stores at most 32 planes (parse).
	backing := make([]byte, (want-have)*planeBytes)
	ParallelFor(want-have, func(i int) {
		p := have + i
		at := int(offs[p] - spanOff)
		plane := backing[i*planeBytes : (i+1)*planeBytes : (i+1)*planeBytes]
		if err := codec.DecodeBlockInto(plane, raw[at:at+int(m.blockSizes[p])]); err != nil {
			ferr.set(fmt.Errorf("core: level %d plane %d: %w", level, p, err))
			return
		}
		r.planes[level-1][p] = plane
	})
	if r.stats != nil {
		r.stats.CodecNanos.Add(time.Since(codecT).Nanoseconds())
	}
	return ferr.get()
}

// mergePlanes is the half of a raise that cannot fail: it undoes the
// predictive coding of the planes fetchPlanes decoded, recomputes the
// level's truncated indices from the loaded prefix and records the new
// plane count and the bytes it cost.
func (r *Result) mergePlanes(level, want int) {
	a := r.arch
	m := a.h.metaOf(level)
	have, want := r.newPlanes(level, want)
	if want <= have {
		return
	}
	_, spanLen := a.h.planeSpan(level, have, want)
	r.loadedBytes += spanLen
	// Undo the predictive XOR coding for the newly loaded planes only; the
	// planes above them were decoded when they were loaded.
	planeBytes := (m.count + 7) / 8
	parallelChunks(planeBytes, minShardTargets/8, 1, func(lo, hi int) {
		bitplane.PredictDecodeRangeBytes(r.planes[level-1], have, want, lo, hi)
	})

	// Recompute the truncated indices from the loaded prefix: word-level
	// merge plus negabinary decode, chunk-sharded over pooled scratch.
	var full [bitplane.Planes][]byte
	base := bitplane.Planes - m.usedPlanes
	for p := 0; p < want; p++ {
		full[base+p] = r.planes[level-1][p]
	}
	nbv := uint32Scratch.Get(m.count)
	defer uint32Scratch.Put(nbv)
	ks := r.trunc[level-1]
	parallelChunks(m.count, minShardTargets, 8, func(lo, hi int) {
		bitplane.MergeRange(nbv, full[:], lo, hi)
		for i := lo; i < hi; i++ {
			ks[i] = nb.Decode32(nbv[i])
		}
	})
	r.plan.Keep[level-1] = want
}

// RefineTo raises the result to a finer plan in place (Algorithm 2): only
// the newly selected bitplanes are read and entropy-decoded. They are merged
// into the truncated indices and the reconstruction recursion reruns from
// those, at either scalar width, so a refined result is bit for bit the
// fresh retrieval of its plan — a function of (archive, plan) and of nothing
// that came before — and never carries error beyond what PlanErrorBound
// models for that plan.
//
// Plans that would *drop* planes at some level are clamped: progressive
// retrieval only ever adds information.
func (r *Result) RefineTo(plan Plan) error {
	a := r.arch
	if len(plan.Keep) != a.h.levels {
		return fmt.Errorf("core: plan has %d levels, archive %d", len(plan.Keep), a.h.levels)
	}
	// Everything that can fail — reading and entropy-decoding the new
	// blocks — runs for every level before the first level is merged, so a
	// refinement either happens in full or leaves the result at its old
	// plan with its old values and guarantee.
	// Coarse to fine, so that the finest level — seven eighths of the
	// planes — is merged, first, while what was decoded, last, is still in
	// cache.
	changedBelow := 0 // coarsest level that gains planes, 0 = none
	for l := a.h.prog; l >= 1; l-- {
		if have, want := r.newPlanes(l, plan.Keep[l-1]); want > have {
			if err := r.fetchPlanes(l, want); err != nil {
				return err
			}
			changedBelow = max(changedBelow, l)
		}
	}
	if changedBelow == 0 {
		return nil
	}
	for l := 1; l <= changedBelow; l++ {
		r.mergePlanes(l, plan.Keep[l-1])
	}
	if r.data32 != nil {
		rebuild(a, r.data32, r.trunc)
	} else {
		rebuild(a, r.data64, r.trunc)
	}
	return nil
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
	// Never drop below the current plan.
	for i := range plan.Keep {
		if plan.Keep[i] < r.plan.Keep[i] {
			plan.Keep[i] = r.plan.Keep[i]
		}
	}
	return r.RefineTo(plan)
}

// RefineAll loads every remaining block, reaching full fidelity.
func (r *Result) RefineAll() error { return r.RefineTo(r.arch.fullPlan()) }
