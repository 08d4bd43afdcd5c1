package interp

import "repro/internal/grid"

// This file implements the batched interpolation engine that replaced the
// original per-point closure walk. A level is a sequence of dimension
// passes; within one pass every target point (odd multiple of the stride s
// along the active dimension) is predicted exclusively from even multiples
// of s along that dimension, which the pass never writes. All targets of a
// pass are therefore mutually independent: they can be visited in any
// partition, in any order, in parallel, and even more than once, and still
// reconstruct bit-identically to the serial canonical order.
//
// The engine exposes the pass geometry as "runs": arithmetic progressions
// of flat indices whose points all share one prediction formula (the
// Mode). Kernels — quantization during compression, dequantize-and-apply
// during retrieval — iterate runs with tight inlined loops instead of
// paying an indirect call per grid point. A pass is walked two ways:
//
//   - VisitRuns, in canonical order, with maximal runs along the innermost
//     dimension. The point-at-a-time baselines (internal/baselines/lossy)
//     and the tests' reference coders use it.
//   - Walk, for the codec's kernels, which may take any order: the
//     compressor sorts a pass's outliers back into canonical order, the
//     order the archive records them in. Walk hands out blocks: Rows
//     consecutive rows of one mode, each row a run of N targets along the
//     innermost dimension, at most rowBlock rows of one outer group (32
//     rows of a 128-wide f32 field are 16 KB). A pass along an outer
//     dimension is one block per group of rows; the pass along the
//     innermost dimension splits each row into up to four segments of
//     different modes, so it is one block per segment: the cubic (or
//     linear) interior of every row, and the ≤ 3 boundary targets, which
//     are blocks one or two targets wide that a consumer walks as columns
//     across the rows. On level 1 the targets of a row sit 2 elements
//     apart, which is what lets a kernel load a row's operands a whole
//     vector at a time.

// RunMode identifies the single prediction formula that applies to every
// point of a run, mirroring the cases of the scalar predictor.
type RunMode uint8

const (
	// RunCopyLeft predicts data[f-Off1]: the target has no right neighbour.
	RunCopyLeft RunMode = iota
	// RunLinear predicts the midpoint average of the ±s neighbours.
	RunLinear
	// RunCubic predicts the 4-point cubic interior formula.
	RunCubic
)

// Run is a batch of target points sharing one prediction formula. The
// k-th point (k = 0..N-1) lives at flat index Flat + k*Step and has
// level-local sequence index Seq + k*SeqStep, which is where its
// quantization index lives. VisitRuns emits maximal runs in canonical
// order, all with SeqStep 1 and Rows 1.
//
// Walk emits blocks: Rows runs of N points, row i shifted by i*RowStep
// flat and i*RowSeqStep in sequence. A kernel takes a block whole, or row
// by row, or, after Transpose, column by column (the j-th target of every
// row, a run of Rows points RowStep apart).
type Run struct {
	Flat    int // flat index of the first target
	Step    int // flat stride between successive targets
	Seq     int // level-local canonical sequence index of the first target
	SeqStep int // sequence-index stride between successive targets
	N       int // number of targets
	Off1    int // flat offset of the ±s neighbours along the active dimension
	Off3    int // flat offset of the ±3s neighbours (RunCubic only)
	Mode    RunMode

	Rows       int // runs in the block (1 for VisitRuns)
	RowStep    int // flat stride between successive rows
	RowSeqStep int // sequence-index stride between successive rows
}

// Transpose turns the block r around in place: its rows become r's
// columns, the j-th target of every row.
func (r *Run) Transpose() {
	r.Step, r.RowStep = r.RowStep, r.Step
	r.SeqStep, r.RowSeqStep = r.RowSeqStep, r.SeqStep
	r.N, r.Rows = r.Rows, r.N
}

// Predict evaluates the run's prediction formula for the point at flat
// index f, in T's native arithmetic. It is the single source of truth that
// kernels inline by switching on Mode once per run instead of once per
// point. For float64 the expressions are unchanged from the scalar
// predictor, so archives stay bit-identical; for float32 the prediction is
// only an estimate anyway — the quantizer's float64 bound check (see
// internal/core kernels) is what keeps the error guarantee exact.
func Predict[T grid.Scalar](r *Run, data []T, f int) T {
	switch r.Mode {
	case RunCubic:
		return (-data[f-r.Off3] + 9*data[f-r.Off1] +
			9*data[f+r.Off1] - data[f+r.Off3]) / 16
	case RunCopyLeft:
		return data[f-r.Off1]
	default:
		return 0.5 * (data[f-r.Off1] + data[f+r.Off1])
	}
}

// Predict is the float64 form of the generic Predict function, kept as a
// method for the float64-only baselines and the benchmark's probes.
func (r *Run) Predict(data []float64, f int) float64 { return Predict(r, data, f) }

// Pass is one dimension pass of one level: the set of points whose
// coordinate along the active dimension is an odd multiple of the level
// stride s, whose earlier coordinates are multiples of s and later
// coordinates multiples of 2s, in lexicographic order.
type Pass struct {
	dec    *Decomposition
	dim    int
	s      int
	rank   int
	cnt    [grid.MaxDims]int // iteration counts per dimension
	total  int               // number of targets in this pass
	seqOff int               // level-local sequence index of the first target
}

// LevelPasses returns the dimension passes of level l in canonical order.
// Passes must be processed sequentially (later passes read points written
// by earlier ones); targets within one pass are mutually independent.
func (d *Decomposition) LevelPasses(l int) []Pass {
	s := 1 << uint(l-1)
	nd := len(d.shape)
	passes := make([]Pass, nd)
	seq := 0
	for dim := 0; dim < nd; dim++ {
		p := &passes[dim]
		p.dec, p.dim, p.s, p.rank, p.seqOff = d, dim, s, nd, seq
		p.total = 1
		for j := 0; j < nd; j++ {
			p.cnt[j] = passIterations(d.shape[j], s, j, dim)
			p.total *= p.cnt[j]
		}
		seq += p.total
	}
	return passes
}

// passIterations counts the iteration range of dimension j within the pass
// along dim: earlier dimensions step by s from 0, the active dimension
// walks the odd multiples of s, later dimensions step by 2s from 0.
func passIterations(extent, s, j, dim int) int {
	switch {
	case j < dim:
		return (extent-1)/s + 1
	case j == dim:
		if extent <= s {
			return 0
		}
		return (extent-1-s)/(2*s) + 1
	default:
		return (extent-1)/(2*s) + 1
	}
}

// Targets returns the number of points this pass predicts.
func (p *Pass) Targets() int { return p.total }

// SeqOffset returns the level-local canonical sequence index of the pass's
// first target.
func (p *Pass) SeqOffset() int { return p.seqOff }

// runSeg is a range of active-dimension iteration indices sharing a mode.
type runSeg struct {
	lo, hi int
	mode   RunMode
}

// segments builds the ≤4 uniform-mode ranges of the active dimension's
// iteration index j (target coordinate c = s + 2s·j): an optional linear
// head (j=0 has no −3s neighbour), the cubic interior, a linear tail near
// the right boundary, and the copy-left point when c+s falls outside.
func (p *Pass) segments(kind Kind) (segs [4]runSeg, nseg int) {
	s := p.s
	extent := p.dec.shape[p.dim]
	nj := p.cnt[p.dim]
	if nj == 0 {
		return segs, 0
	}
	njNC := nj // targets that have a right neighbour
	if s+2*s*(nj-1)+s >= extent {
		njNC--
	}
	add := func(lo, hi int, m RunMode) {
		if hi > lo {
			segs[nseg] = runSeg{lo, hi, m}
			nseg++
		}
	}
	cubHi := 0
	if kind == Cubic && extent > 4*s {
		// c+3s < extent  ⟺  j < (extent-4s)/(2s), counted with a ceiling.
		cubHi = (extent - 2*s - 1) / (2 * s)
		if cubHi > njNC {
			cubHi = njNC
		}
	}
	if cubHi > 1 {
		add(0, 1, RunLinear)
		add(1, cubHi, RunCubic)
		add(cubHi, njNC, RunLinear)
	} else {
		add(0, njNC, RunLinear)
	}
	add(njNC, nj, RunCopyLeft)
	return segs, nseg
}

// VisitRuns invokes fn for every run covering the pass targets with
// pass-local sequence index in [tLo, tHi), in canonical order. Disjoint
// ranges touch disjoint targets, so shards of one pass may execute
// concurrently; fn must not retain the Run past the call.
func (p *Pass) VisitRuns(kind Kind, tLo, tHi int, fn func(*Run)) {
	if tLo < 0 {
		tLo = 0
	}
	if tHi > p.total {
		tHi = p.total
	}
	if tLo >= tHi {
		return
	}
	nd := p.rank
	st := p.dec.strides
	s := p.s
	dim := p.dim
	off1 := s * st[dim]
	segs, nseg := p.segments(kind)

	inner := nd - 1
	innerCnt := p.cnt[inner]
	innerStep := 2 * s * st[inner]

	// Decode the starting row (the lexicographic index over dims 0..nd-2)
	// and its flat base; rows advance with carry loops from there.
	row := tLo / innerCnt
	jFrom := tLo % innerCnt
	var idx [grid.MaxDims]int
	rem := row
	for d := nd - 2; d >= 0; d-- {
		idx[d] = rem % p.cnt[d]
		rem /= p.cnt[d]
	}
	rowBase := 0
	for d := 0; d < nd-1; d++ {
		rowBase += (p.passStart(d) + p.passStep(d)*idx[d]) * st[d]
	}

	run := Run{SeqStep: 1, Off1: off1, Off3: 3 * off1, Rows: 1}
	for t := tLo; t < tHi; {
		jTo := jFrom + (tHi - t)
		if jTo > innerCnt {
			jTo = innerCnt
		}
		seqBase := p.seqOff + t - jFrom // level-local seq of the row's j=0
		if dim == inner {
			// The inner loop walks the active dimension: emit one run per
			// boundary segment overlapping [jFrom, jTo).
			for si := 0; si < nseg; si++ {
				lo, hi := segs[si].lo, segs[si].hi
				if lo < jFrom {
					lo = jFrom
				}
				if hi > jTo {
					hi = jTo
				}
				if lo >= hi {
					continue
				}
				run.Flat = rowBase + (s+2*s*lo)*st[dim]
				run.Step = innerStep
				run.Seq = seqBase + lo
				run.N = hi - lo
				run.Mode = segs[si].mode
				fn(&run)
			}
		} else {
			// The inner loop walks a later dimension at a fixed active-dim
			// coordinate, so the whole row shares one mode.
			jd := idx[dim]
			mode := RunLinear
			for si := 0; si < nseg; si++ {
				if jd >= segs[si].lo && jd < segs[si].hi {
					mode = segs[si].mode
					break
				}
			}
			run.Flat = rowBase + 2*s*jFrom*st[inner]
			run.Step = innerStep
			run.Seq = seqBase + jFrom
			run.N = jTo - jFrom
			run.Mode = mode
			fn(&run)
		}
		t += jTo - jFrom
		jFrom = 0
		for d := nd - 2; d >= 0; d-- {
			idx[d]++
			rowBase += p.passStep(d) * st[d]
			if idx[d] < p.cnt[d] {
				break
			}
			rowBase -= p.passStep(d) * st[d] * p.cnt[d]
			idx[d] = 0
		}
	}
}

// passStart returns the first coordinate of dimension d within the pass.
func (p *Pass) passStart(d int) int {
	if d == p.dim {
		return p.s
	}
	return 0
}

// passStep returns the coordinate step of dimension d within the pass.
func (p *Pass) passStep(d int) int {
	if d < p.dim {
		return p.s
	}
	return 2 * p.s
}

// rowBlock caps the rows of one block of Walk.
const rowBlock = 32

// Lines reports how a walk of the pass is sharded: the pass holds
// lines × width targets, line i being the pass-local indices [i·width,
// (i+1)·width). A line is a row along the innermost dimension; a 1-D pass,
// which is a single row, counts each target as a line.
func (p *Pass) Lines() (lines, width int) {
	if p.total == 0 {
		return 0, 0
	}
	if p.rank == 1 {
		return p.total, 1
	}
	width = p.cnt[p.rank-1]
	return p.total / width, width
}

// FlatIndex returns the flat index of the target with pass-local sequence
// index t.
func (p *Pass) FlatIndex(t int) int {
	f := 0
	for d := p.rank - 1; d >= 0; d-- {
		i := t % p.cnt[d]
		t /= p.cnt[d]
		f += (p.passStart(d) + p.passStep(d)*i) * p.dec.strides[d]
	}
	return f
}

// Walk iterates blocks of runs covering lines [lo, hi) of the pass (see
// Lines), each target exactly once, in no canonical order. Disjoint line
// ranges cover disjoint targets, so shards may run concurrently. In a
// field of rank ≥ 2 a block is at most rowBlock consecutive rows that
// share their outer coordinates and, for a pass along the second-innermost
// dimension, their mode: RowStep is the flat stride between the rows and
// RowSeqStep = width. A pass along an outer dimension comes out as one
// block a group of rows, N = width; the pass along the innermost dimension
// as one block per segment of the rows (the linear head, the cubic
// interior, the linear tail, the copy-left end: see segments), in that
// order, each N targets wide. A 1-D pass comes out as VisitRuns would
// emit it, one row.
//
// A consumer takes a block in one of two lane shapes. On level 1 every row
// is a run with Step 2 and SeqStep 1, so a row's targets fill whole
// vectors from two loads per operand (internal/core's pair kernels take a
// block in one call). A block whose rows are shorter than a vector group
// (the boundary segments, one to three targets wide) is taken after
// Transpose, a column at a time, lanes RowStep apart.
func (p *Pass) Walk(kind Kind, lo, hi int) Walk {
	w := Walk{p: p, line: lo, hi: hi}
	w.segs, w.nseg = p.segments(kind)
	if lo < hi && p.rank > 1 {
		w.seek(lo)
		w.nextBlock()
	}
	return w
}

// Walk is the iterator Pass.Walk returns; it holds no heap state, so a
// caller that keeps it and its Run on the stack allocates nothing.
type Walk struct {
	p        *Pass
	segs     [4]runSeg
	nseg     int
	line, hi int               // next line to cover, end of the walk
	idx      [grid.MaxDims]int // iteration indices of line's row, dims 0..rank-2
	rowBase  int               // flat index of line's row at innermost coordinate 0
	blockEnd int               // end of the block being emitted
	si       int               // next segment of the row or block; nseg once the block is out
}

// seek positions the walk at the row of line.
func (w *Walk) seek(line int) {
	p := w.p
	w.rowBase = 0
	for d := p.rank - 2; d >= 0; d-- {
		w.idx[d] = line % p.cnt[d]
		line /= p.cnt[d]
		w.rowBase += (p.passStart(d) + p.passStep(d)*w.idx[d]) * p.dec.strides[d]
	}
}

// Next fills r with the next block and reports whether there was one.
func (w *Walk) Next(r *Run) bool {
	p := w.p
	st := p.dec.strides
	s, inner := p.s, p.rank-1
	r.Off1 = s * st[p.dim]
	r.Off3 = 3 * r.Off1
	if p.rank == 1 {
		// Lines are the targets of the pass's one row: the boundary
		// segments, clipped to [line, hi).
		for ; w.si < w.nseg; w.si++ {
			seg := w.segs[w.si]
			lo, hi := max(seg.lo, w.line), min(seg.hi, w.hi)
			if lo >= hi {
				continue
			}
			r.Flat, r.Step = (s+2*s*lo)*st[0], 2*s*st[0]
			r.Seq, r.SeqStep, r.N, r.Mode = p.seqOff+lo, 1, hi-lo, seg.mode
			r.Rows, r.RowStep, r.RowSeqStep = 1, 0, 0
			w.si++
			return true
		}
		return false
	}
	if w.si == w.nseg {
		w.advance()
		if w.line < w.hi {
			w.nextBlock()
		}
	}
	if w.line >= w.hi {
		return false
	}
	width := p.cnt[inner]
	r.Step, r.SeqStep = 2*s*st[inner], 1
	r.Rows, r.RowStep, r.RowSeqStep = w.blockEnd-w.line, p.passStep(inner-1)*st[inner-1], width
	r.Seq = p.seqOff + w.line*width
	if p.dim < inner {
		r.Flat, r.N, r.Mode = w.rowBase, width, w.segs[w.segOf(w.idx[p.dim])].mode
		w.si = w.nseg // one block for all its rows
		return true
	}
	seg := w.segs[w.si]
	w.si++
	r.Flat = w.rowBase + (s+2*s*seg.lo)*st[inner]
	r.Seq += seg.lo
	r.N, r.Mode = seg.hi-seg.lo, seg.mode
	return true
}

// segOf returns the segment holding active-dimension iteration index j.
func (w *Walk) segOf(j int) int {
	si := 0
	for si < w.nseg-1 && j >= w.segs[si].hi {
		si++
	}
	return si
}

// advance moves the walk from its block to the line after it. A block
// never crosses an outer group, so the row index either stays inside the
// group or reaches its end and carries into the outer dimensions.
func (w *Walk) advance() {
	p := w.p
	st := p.dec.strides
	d := p.rank - 2
	n := w.blockEnd - w.line
	w.line = w.blockEnd
	w.idx[d] += n
	w.rowBase += n * p.passStep(d) * st[d]
	for ; d >= 0 && w.idx[d] == p.cnt[d]; d-- {
		w.rowBase -= p.passStep(d) * st[d] * p.cnt[d]
		w.idx[d] = 0
		if d > 0 {
			w.idx[d-1]++
			w.rowBase += p.passStep(d-1) * st[d-1]
		}
	}
}

// nextBlock starts the block at line, where the walk stands: the rows
// left in its outer group up to hi — and, for a pass along the
// second-innermost dimension, in the segment of its first row — split
// evenly into blocks of at most rowBlock.
func (w *Walk) nextBlock() {
	p := w.p
	d := p.rank - 2
	end := min(w.hi, w.line+p.cnt[d]-w.idx[d])
	if p.dim == d {
		j := w.idx[d]
		end = min(end, w.line+w.segs[w.segOf(j)].hi-j)
	}
	n := end - w.line
	if n > rowBlock {
		blocks := (n + rowBlock - 1) / rowBlock
		n = (n + blocks - 1) / blocks
	}
	w.blockEnd = w.line + n
	w.si = 0
}
