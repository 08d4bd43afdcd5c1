package core

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/bitplane"
	"repro/internal/codec"
	"repro/internal/grid"
)

// Result is a progressive reconstruction: the decompressed field at some
// fidelity plus the state needed to refine it in place by loading further
// bitplanes (paper Algorithm 2). The field is held at the archive's native
// scalar width — exactly one of the two backing slices is non-nil — and is,
// however the result reached its plan, bit for bit what Retrieve(Plan())
// returns. Besides the values, a result below full fidelity keeps one
// int32 per value, the indices it refines from; one at full fidelity, with
// nothing left to load, keeps none. Nothing else it holds grows with the
// field.
type Result struct {
	arch   *Archive
	plan   Plan
	data64 []float64 // float64 archives
	data32 []float32 // float32 archives
	// trunc[l-1] is each level's current truncated quantization index: what
	// rebuild reconstructs from, and — its negabinary code is exactly the
	// loaded planes — all a raise needs of the planes loaded before it.
	// Both are nil at full fidelity.
	trunc [][]int32
	idx   []int32 // the one backing every trunc[l-1] is cut from
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

// getReleased returns a length-n value backing, a released result's when
// one of its size class is pooled.
func getReleased[T grid.Scalar](n int) []T {
	var z T
	if _, ok := any(z).(float32); ok {
		return any(released32.Get(n)).([]T)
	}
	return any(released64.Get(n)).([]T)
}

// Release hands the result's values and indices to a later retrieval and
// leaves the result empty. Nothing may use the result after it, nor any
// slice it shared (Data and Grid of a float64 result, DataFloat32 of a
// float32 one, DataOf of the native type). A program that keeps its
// results need not call it; the store's tile cache calls it on the tiles
// it evicts, so that a steady stream of cold tiles decodes into the
// memory of the tiles they displace.
func (r *Result) Release() {
	if r.data32 != nil {
		released32.Put(r.data32)
	}
	if r.data64 != nil {
		released64.Put(r.data64)
	}
	if r.idx != nil {
		clear(r.idx[:cap(r.idx)])
		releasedIdx.Put(r.idx)
	}
	r.data32, r.data64, r.idx, r.trunc = nil, nil, nil, nil
}

// rebuild reruns the reconstruction recursion into data from each level's
// current indices — trunc[l-1], or, when trunc is nil, every plane of the
// level decoded in planes[l-1] (see applyShard) — level `from` first and
// the finest last; from = L, the coarsest level, places the anchors before
// it. It is the body of Retrieve and of RefineTo: the field is a function
// of the archive and these indices alone. applyLevel assigns every point
// of its level from coarser points and the level's own indices, so the
// anchors and the levels coarser than `from`, whose indices have not
// changed, already hold their bits.
func rebuild[T grid.Scalar](a *Archive, data []T, trunc [][]int32, planes [][]byte, from int) {
	if from == a.h.levels {
		for i, idx := range a.dec.Anchors() {
			data[idx] = T(a.h.anchors[i])
		}
	}
	for l := from; l >= 1; l-- {
		if trunc != nil {
			applyLevel(a, data, l, trunc[l-1], nil)
		} else {
			applyLevel(a, data, l, nil, planes[l-1])
		}
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
// empty one (data nil), which is what Retrieve is. Everything that can
// fail — reading and entropy-decoding the new blocks — runs for every
// level, into one pooled backing, before the first level is merged, so a
// refinement either happens in full or leaves the result at its old plan
// with its old values and guarantee.
//
// A retrieval takes its backings while the planes decode, as one more job
// of their fan-out (fetch). A result that ends with every plane of
// every level loaded keeps no indices: a retrieval's rebuild merges each
// level straight from the decoded planes, a block at a time, and a
// refinement that gets there drops its indices to the collector.
func raise[T grid.Scalar](r *Result, plan Plan, data []T) error {
	a := r.arch
	fresh := data == nil
	total, full := 0, true
	for l := 1; l <= a.h.levels; l++ {
		have, want := r.newPlanes(l, a.keepOf(plan, l))
		total += r.raiseBytes(l, want)
		full = full && max(have, want) == a.h.metaOf(l).usedPlanes
	}
	var alloc func()
	if fresh {
		n := a.h.shape.Len()
		alloc = func() {
			setData(r, getReleased[T](n))
			if !full {
				// Zeroed, fresh or released: merges OR under it.
				r.idx = releasedIdx.Get(a.h.indexCount())
			}
		}
	}
	backing := byteScratch.Get(total)
	defer byteScratch.Put(backing)
	got, from, err := r.fetch(plan, backing, alloc)
	if err != nil {
		return err
	}
	if fresh {
		data = DataOf[T](r)
		from = a.h.levels
		if full {
			for l := 1; l <= a.h.levels; l++ {
				if got[l-1] != nil {
					r.raised(l, a.h.metaOf(l).usedPlanes)
				}
			}
			rebuild(a, data, nil, got, from)
			return nil
		}
		r.trunc = make([][]int32, a.h.levels)
		for l, off := 1, 0; l <= a.h.levels; l++ {
			n := a.h.metaOf(l).count
			r.trunc[l-1], off = r.idx[off:off+n:off+n], off+n
		}
	}
	if from == 0 {
		return nil
	}
	for l := 1; l <= from; l++ {
		r.mergePlanes(l, a.keepOf(plan, l), got[l-1])
	}
	rebuild(a, data, r.trunc, nil, from)
	if full {
		r.idx, r.trunc = nil, nil // nothing left to refine: to the collector
	}
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

// raiseBytes is the size of the planes a raise of level to want decodes.
// It is bounded by checks already made: m.count is the decomposition's own
// count for the level (retrieveStatsAs) and a level stores at most 32
// planes (parse).
func (r *Result) raiseBytes(level, want int) int {
	have, want := r.newPlanes(level, want)
	return max(want-have, 0) * ((r.arch.h.metaOf(level).count + 7) / 8)
}

// fetch is the half of a raise to plan that can fail: it reads every
// level's new blocks and entropy-decodes them into backing, which holds the
// sum of their raiseBytes. got[l-1] is level l's new planes, plane have
// first, nil for a level that gains nothing; from is the coarsest level that
// gains planes, 0 for none. DecodeBlockInto writes every byte of its plane
// whatever the block's method, so backing needs no zeroing. fetch changes
// nothing in the result, so a refinement that fails here, on any level,
// leaves the result exactly at its previous plan and can simply be tried
// again.
//
// A level's blocks are adjacent in the archive (plan-ordered layout), so
// they arrive as one span read; then every plane of every level inflates in
// one fan-out, the blocks being independent. alongside, when not nil, is
// one more job of that fan-out, taken first: a retrieval's backings are
// allocated by one goroutine while the others decode.
func (r *Result) fetch(plan Plan, backing []byte, alongside func()) (got [][]byte, from int, err error) {
	a := r.arch
	got = make([][]byte, a.h.levels)
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
		n := r.raiseBytes(l, want)
		got[l-1], backing = backing[:n:n], backing[n:]
		off, size := a.h.planeSpan(l, have, want)
		raw, release, err := readSpan(a.src, off, int(size))
		if err != nil {
			return nil, 0, err
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
		p, planeBytes := sp.have+i-sp.first, (m.count+7)/8
		at := int(a.h.blockOff[sp.level-1][p] - sp.off)
		j := (i - sp.first) * planeBytes
		plane := got[sp.level-1][j : j+planeBytes : j+planeBytes]
		if err := codec.DecodeBlockInto(plane, sp.raw[at:at+int(m.blockSizes[p])]); err != nil {
			ferr.set(fmt.Errorf("core: level %d plane %d: %w", sp.level, p, err))
		}
	})
	if r.stats != nil {
		r.stats.CodecNanos.Add(time.Since(codecT).Nanoseconds())
	}
	if err := ferr.get(); err != nil {
		return nil, 0, err
	}
	return got, from, nil
}

// planeSpan is one level's new blocks as fetch read them: planes
// [have, …) of the level, the fan-out's jobs from first on.
type planeSpan struct {
	level, have, first int
	off                int64
	raw                []byte
	release            func()
}

// mergePlanes is the half of a raise that cannot fail: it merges the planes
// [have, want) that fetch decoded into got into the level's truncated
// indices and records the raise (raised).
//
// Only the new planes are touched. Their XOR prediction (plane p was stored
// as the XOR of bits p, p−1 and p−2) is undone among themselves, as if the
// planes above were zero. The error that makes is linear and reaches the
// new planes only through the two loaded bits nearest them, so it is one of
// four words: corr[ab] for those bits ab, the recurrence e_p = e_{p−1} ^
// e_{p−2} run from them down through plane want−1. A value's new bits are
// its merged new planes XOR that word, ORed under its old negabinary code.
// bitplane.MergeDecodeRange does all of it in one pass over the values.
func (r *Result) mergePlanes(level, want int, got []byte) {
	a := r.arch
	m := a.h.metaOf(level)
	have, want := r.newPlanes(level, want)
	if want <= have {
		return
	}
	// The new planes at their bit positions among the 32 (plane p of the
	// level is bit usedPlanes−1−p), every other position nil.
	j := mergeJobs.Get().(*mergeJob)
	j.ks = r.trunc[level-1]
	planeBytes := (m.count + 7) / 8
	used := j.planes[bitplane.Planes-m.usedPlanes:]
	for p := have; p < want; p++ {
		i := p - have
		used[p] = got[i*planeBytes : (i+1)*planeBytes : (i+1)*planeBytes]
	}
	j.keep = ^uint32(0) << (m.usedPlanes - want) // the bits of planes < want
	j.top = uint(m.usedPlanes - have)            // bit of plane have−1; plane have−2 is top+1
	for ab := range j.corr {
		e1, e2 := uint32(ab&1), uint32(ab>>1) // the errors of planes p−1, p−2
		for p := have; p < want; p++ {
			e1, e2 = e1^e2, e1
			j.corr[ab] |= e1 << (m.usedPlanes - 1 - p)
		}
	}
	parallelChunks(m.count, minShardTargets, 8, j.shard)
	*j = mergeJob{shard: j.shard} // drop the references to ks and got
	mergeJobs.Put(j)
	r.raised(level, want)
}

// raised records that level l now holds planes [0, want): the new plane
// count and the bytes the raise read.
func (r *Result) raised(level, want int) {
	have, want := r.newPlanes(level, want)
	_, spanLen := r.arch.h.planeSpan(level, have, want)
	r.loadedBytes += spanLen
	r.plan.Keep[level-1] = want
}

// mergeJob is what the shards of one mergePlanes share. It is pooled with
// its shard function bound once, so a raise allocates neither the plane
// table nor a closure for the helpers to run.
type mergeJob struct {
	ks     []int32
	planes [bitplane.Planes][]byte
	keep   uint32
	top    uint
	corr   [4]uint32
	shard  func(lo, hi int) // merge, bound to this job
}

var mergeJobs = sync.Pool{New: func() any {
	j := new(mergeJob)
	j.shard = j.merge
	return j
}}

func (j *mergeJob) merge(lo, hi int) {
	bitplane.MergeDecodeRange(j.ks, j.planes[:], lo, hi, j.keep, j.top, &j.corr)
}

// RefineTo raises the result to a finer plan in place (Algorithm 2): only
// the newly selected bitplanes are read and entropy-decoded. They are merged
// into the truncated indices and the reconstruction recursion reruns from
// the coarsest level that gained planes, at either scalar width, so a
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
