//go:build amd64 && !purego

package core

import (
	"unsafe"

	"repro/internal/cpu"
	"repro/internal/grid"
	"repro/internal/interp"
)

// asmKernels reports whether this build contains vector kernels at all;
// useAVX2 is the runtime dispatch switch (CPUID probe, overridable in
// tests). The generics in kernels.go consult both so that purego builds
// compile the scalar loops with zero dispatch overhead.
const asmKernels = true

var useAVX2 = cpu.X86.HasAVX2

// setAVX2 forces the core vector kernels (fused predict+quantize,
// dequantize+apply) on or off and reports whether they are active
// afterwards. It exists so tests and benchmarks can drive both paths; it
// is not safe to toggle concurrently with Compress/Retrieve.
func setAVX2(on bool) bool {
	useAVX2 = on && cpu.X86.HasAVX2
	return useAVX2
}

// kernArgs is the argument block shared by the quantize and apply kernels
// in kernels_amd64.s; a single pointer keeps the assembly prologues to one
// field-offset scheme. All integer fields are 64-bit so offsets are
// uniform. The apply kernels ignore invStep and eb. Only the strided
// quantize kernels take data at the array's start and f; every other
// kernel takes data at the first target of its block.
type kernArgs struct {
	data    unsafe.Pointer // *float64 / *float32 work array
	ks      unsafe.Pointer // *int32, pre-offset to the run's first seq
	f       int64          // flat index of the first point
	fstep   int64          // flat stride between points
	n       int64          // points in a run or row
	off1    int64          // ±s neighbour offset
	off3    int64          // ±3s neighbour offset (cubic only)
	mode    int64          // interp.RunMode
	step    float64        // quantizer step (narrowed in the f32 kernels)
	invStep float64
	eb      float64
	ksStep  int64 // index stride between points
	// The apply kernels and the pair quantize kernels cover a block of
	// rows in one call: row i starts rowStep points and ksRowStep
	// indices after row i-1.
	rows      int64
	rowStep   int64
	ksRowStep int64
	at        int64 // quantize pair kernels: the first group, g·rows + row
}

// quantizeRunF64 commits points through the fused predict+quantize+bound
// check pipeline four at a time, stopping at the first group with any lane
// out of the negabinary window or error bound (the scalar path owns the
// outlier protocol). Returns the number of points committed.
//
//go:noescape
func quantizeRunF64(a *kernArgs) int64

// quantizeRunF32 is the eight-lane single-precision variant. Residual and
// reconstruction arithmetic runs in float32 exactly like the generic
// kernel; only the error-bound check widens to float64.
//
//go:noescape
func quantizeRunF32(a *kernArgs) int64

// applyRunF64 reconstructs pred + k·step four points at a time, reading
// the indices ksStep apart, over a block of a.rows runs of a.n ≥ 4 points,
// each run's full groups and one last group that ends on its last point.
// No bail conditions: the caller restores outlier positions afterwards.
//
//go:noescape
func applyRunF64(a *kernArgs)

// applyRunF32 is the eight-lane single-precision variant.
//
//go:noescape
func applyRunF32(a *kernArgs)

// quantizePairsF64 quantizes a block of rows whose points sit 2 elements
// apart with contiguous indices, the targets of level-1 rows: each operand
// is two whole-vector loads and a lane deinterleave, each group's indices
// one store and its values two masked stores that write only its targets.
// It goes group by group across the rows (the first group of every row,
// then the second, …; a row's last group overlaps the one before it and
// commits only its new lanes), from group a.at (g·rows + row) on, and
// returns the first group with a lane out of the window or the bound, or
// −1 when it committed every group.
//
//go:noescape
func quantizePairsF64(a *kernArgs) int64

// quantizePairsF32 is the eight-lane single-precision variant.
//
//go:noescape
func quantizePairsF32(a *kernArgs) int64

// applyPairsF64 is applyRunF64 for a block of rows whose points sit 2
// elements apart with contiguous indices, loading and storing as
// quantizePairsF64 does and going group by group across the rows as it
// does.
//
//go:noescape
func applyPairsF64(a *kernArgs)

// applyPairsF32 is the eight-lane single-precision variant.
//
//go:noescape
func applyPairsF32(a *kernArgs)

// pairs reports whether the points of r sit 2 elements apart with
// contiguous indices, the lane shape of the pair kernels.
func pairs(r *interp.Run) bool { return r.Step == 2 && r.SeqStep == 1 }

// quantizeRunAccel hands the next n points of the run, from flat index f
// and sequence index seq on, to the vector kernel and returns how many it
// committed: whole groups, up to the first that trips a guard (0 when
// inactive or when n is shorter than a group).
func quantizeRunAccel[T grid.Scalar](w []T, ks []int32, r *interp.Run, f, seq, n int, step, invStep T, eb float64) int {
	if !useAVX2 || n < 4 {
		return 0
	}
	// The kernel does not bound-check; the last point and index do.
	_ = w[f+(n-1)*r.Step]
	_ = ks[seq+(n-1)*r.SeqStep]
	// Field by field, not a composite literal: the literal is built in a
	// zeroed temporary and block-copied into a (DUFFZERO + DUFFCOPY on every
	// call, and a tile makes one call per run of ≤ 16 points).
	var a kernArgs
	a.ks = unsafe.Pointer(&ks[seq])
	a.f, a.fstep, a.n = int64(f), int64(r.Step), int64(n)
	a.ksStep = int64(r.SeqStep)
	a.off1, a.off3, a.mode = int64(r.Off1), int64(r.Off3), int64(r.Mode)
	a.step, a.invStep, a.eb = float64(step), float64(invStep), eb
	switch wt := any(w).(type) {
	case []float64:
		a.data = unsafe.Pointer(&wt[0])
		return int(quantizeRunF64(&a))
	case []float32:
		if n < 8 {
			return 0
		}
		a.data = unsafe.Pointer(&wt[0])
		return int(quantizeRunF32(&a))
	}
	return 0
}

// quantizePairsAccel quantizes the block r from group at (g·rows + row)
// on through a pair kernel and returns the first group that trips a guard,
// −1 when every group committed, or −2 when no pair kernel takes the
// block: its points are not pairs, or its rows are shorter than a group.
func quantizePairsAccel[T grid.Scalar](w []T, ks []int32, r *interp.Run, at int, step, invStep T, eb float64) int {
	if !useAVX2 || !pairs(r) || r.N < lanes[T]() {
		return -2
	}
	_ = w[r.Flat+(r.Rows-1)*r.RowStep+(r.N-1)*r.Step]
	_ = ks[r.Seq+(r.Rows-1)*r.RowSeqStep+r.N-1]
	var a kernArgs // field by field; data at f, as in applyAccel
	a.ks = unsafe.Pointer(&ks[r.Seq])
	a.n = int64(r.N)
	a.off1, a.off3, a.mode = int64(r.Off1), int64(r.Off3), int64(r.Mode)
	a.step, a.invStep, a.eb = float64(step), float64(invStep), eb
	a.rows, a.rowStep, a.ksRowStep = int64(r.Rows), int64(r.RowStep), int64(r.RowSeqStep)
	a.at = int64(at)
	switch wt := any(w).(type) {
	case []float64:
		a.data = unsafe.Pointer(&wt[r.Flat])
		return int(quantizePairsF64(&a))
	case []float32:
		a.data = unsafe.Pointer(&wt[r.Flat])
		return int(quantizePairsF32(&a))
	}
	return -2
}

// applyAccel reconstructs the whole block r through a vector kernel in
// one call and reports whether it did: a pair kernel when r's points sit 2
// elements apart with contiguous indices, else the strided kernel, a row
// at a time. A block whose rows are shorter than one group (4 float64, 8
// float32 lanes) is left to the caller. The kernels commit each row's full
// groups, then one last group that ends at the row's last point and
// overlaps them: a target reads only points the pass never writes, so
// recomputing one is exact.
func applyAccel[T grid.Scalar](data []T, ks []int32, r *interp.Run, step T) bool {
	if !useAVX2 || r.N < lanes[T]() {
		return false
	}
	// The kernels do not bound-check; the last row's last target and
	// index do.
	_ = data[r.Flat+(r.Rows-1)*r.RowStep+(r.N-1)*r.Step]
	_ = ks[r.Seq+(r.Rows-1)*r.RowSeqStep+(r.N-1)*r.SeqStep]
	var a kernArgs // field by field, as in quantizeRunAccel; data at f
	a.ks = unsafe.Pointer(&ks[r.Seq])
	a.fstep, a.ksStep, a.n = int64(r.Step), int64(r.SeqStep), int64(r.N)
	a.off1, a.off3, a.mode = int64(r.Off1), int64(r.Off3), int64(r.Mode)
	a.step = float64(step)
	a.rows, a.rowStep, a.ksRowStep = int64(r.Rows), int64(r.RowStep), int64(r.RowSeqStep)
	switch dt := any(data).(type) {
	case []float64:
		a.data = unsafe.Pointer(&dt[r.Flat])
		if pairs(r) {
			applyPairsF64(&a)
		} else {
			applyRunF64(&a)
		}
	case []float32:
		a.data = unsafe.Pointer(&dt[r.Flat])
		if pairs(r) {
			applyPairsF32(&a)
		} else {
			applyRunF32(&a)
		}
	}
	return true
}
