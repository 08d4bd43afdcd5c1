package interp

import "repro/internal/grid"

// This file implements the batched interpolation engine that replaced the
// original per-point closure walk. A level is a sequence of dimension
// passes; within one pass every target point (odd multiple of the stride s
// along the active dimension) is predicted exclusively from even multiples
// of s along that dimension, which the pass never writes. All targets of a
// pass are therefore mutually independent: they can be visited in any
// partition, in parallel, and still reconstruct bit-identically to the
// serial canonical order.
//
// The engine exposes the pass geometry as "runs": maximal arithmetic
// progressions of flat indices whose points all share one prediction
// formula (the Mode). Kernels — quantization during compression,
// dequantize-and-apply during retrieval — iterate runs with tight inlined
// loops instead of paying an indirect call per grid point.

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

// Run is a maximal batch of target points sharing one prediction formula.
// The k-th point (k = 0..N-1) lives at flat index Flat + k*Step and has
// canonical sequence index Seq + k within its level.
type Run struct {
	Flat int // flat index of the first target
	Step int // flat stride between successive targets
	Seq  int // level-local canonical sequence index of the first target
	N    int // number of targets
	Off1 int // flat offset of the ±s neighbours along the active dimension
	Off3 int // flat offset of the ±3s neighbours (RunCubic only)
	Mode RunMode
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

	run := Run{Off1: off1, Off3: 3 * off1}
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
