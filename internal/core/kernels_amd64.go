//go:build amd64 && !purego

package core

import (
	"unsafe"

	"repro/internal/cpu"
	"repro/internal/grid"
	"repro/internal/interp"
)

// useAVX2 is the runtime dispatch switch of the vector kernels (CPUID
// probe, overridable in tests).
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
// in kernels_amd64.s, which read its fields by the offsets go_asm.h
// defines (kernArgs_data, …). All integer fields are 64-bit. The apply
// kernels ignore invStep, eb and at. Every kernel takes a block of rows
// in one call, with data and indices at the block's first target: row i
// starts rowStep points and ksRowStep indices after row i-1.
type kernArgs struct {
	data      unsafe.Pointer // *float64 / *float32 work array at the first target
	ks        unsafe.Pointer // *int32 at the first target's index
	fstep     int64          // flat stride between points
	n         int64          // points in a row
	off1      int64          // ±s neighbour offset
	off3      int64          // ±3s neighbour offset (cubic only)
	mode      int64          // interp.RunMode
	step      float64        // quantizer step (narrowed in the f32 kernels)
	invStep   float64
	eb        float64
	ksStep    int64 // index stride between points
	rows      int64
	rowStep   int64
	ksRowStep int64
	at        int64 // quantize kernels: the first group, g·rows + row
}

// quantizeRunF64 quantizes a block of rows through the fused
// predict+quantize+bound check pipeline four points at a time, gathering
// and scattering them lane by lane. It goes group by group across the rows
// from group a.at (g·rows + row) on, as quantizePairsF64 does, and returns
// the first group it does not commit — one with a lane out of the
// negabinary window or the error bound (the scalar path owns the outlier
// protocol), or a row's last group when shorter than four points — or −1.
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

// block fills a with the block r, its indices from ks and its quantizer
// step; the caller sets data, the first target's address at its width.
// Field by field, not a composite literal: the literal is built in a
// zeroed temporary and block-copied into a (DUFFZERO + DUFFCOPY on every
// call, and a block with strided tails makes one call per row).
func (a *kernArgs) block(ks []int32, r *interp.Run, step float64) {
	a.ks = unsafe.Pointer(&ks[r.Seq])
	a.fstep, a.ksStep, a.n = int64(r.Step), int64(r.SeqStep), int64(r.N)
	a.off1, a.off3, a.mode = int64(r.Off1), int64(r.Off3), int64(r.Mode)
	a.step = step
	a.rows, a.rowStep, a.ksRowStep = int64(r.Rows), int64(r.RowStep), int64(r.RowSeqStep)
}

// pairs reports whether the points of r sit 2 elements apart with
// contiguous indices, the lane shape of the pair kernels.
func pairs(r *interp.Run) bool { return r.Step == 2 && r.SeqStep == 1 }

// quantizeAccel quantizes the block r from group at (g·rows + row) on
// through a vector kernel — a pair kernel when r's points sit 2 elements
// apart with contiguous indices, else the strided one — and returns the
// first group it did not commit, −1 when it committed every group, or −2
// when no kernel takes the block: its rows are shorter than a group (4
// float64, 8 float32 lanes). Group g of a row holds its points
// [g·lanes, (g+1)·lanes), the last group only those of the row.
func quantizeAccel[T grid.Scalar](w []T, ks []int32, r *interp.Run, at int, step, invStep T, eb float64) int {
	if !useAVX2 || r.N < lanes[T]() {
		return -2
	}
	// The kernels do not bound-check; the last row's last target and
	// index do.
	_ = w[r.Flat+(r.Rows-1)*r.RowStep+(r.N-1)*r.Step]
	_ = ks[r.Seq+(r.Rows-1)*r.RowSeqStep+(r.N-1)*r.SeqStep]
	var a kernArgs
	a.block(ks, r, float64(step))
	a.invStep, a.eb, a.at = float64(invStep), eb, int64(at)
	switch wt := any(w).(type) {
	case []float64:
		a.data = unsafe.Pointer(&wt[r.Flat])
		if pairs(r) {
			return int(quantizePairsF64(&a))
		}
		return int(quantizeRunF64(&a))
	case []float32:
		a.data = unsafe.Pointer(&wt[r.Flat])
		if pairs(r) {
			return int(quantizePairsF32(&a))
		}
		return int(quantizeRunF32(&a))
	}
	return -2
}

// applyAccel reconstructs the whole block r through a vector kernel in
// one call and reports whether it did: a pair kernel when r's points sit 2
// elements apart with contiguous indices, else the strided kernel. A block
// whose rows are shorter than one group (4 float64, 8 float32 lanes) is
// left to the caller. The kernels commit each row's full
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
	var a kernArgs
	a.block(ks, r, float64(step))
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
