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
// uniform. The apply kernels ignore invStep and eb.
type kernArgs struct {
	data    unsafe.Pointer // *float64 / *float32 work array
	ks      unsafe.Pointer // *int32, pre-offset to the run's first seq
	f       int64          // flat index of the first point
	fstep   int64          // flat stride between points
	n       int64          // points requested (kernels commit a multiple of the lane width)
	off1    int64          // ±s neighbour offset
	off3    int64          // ±3s neighbour offset (cubic only)
	mode    int64          // interp.RunMode
	step    float64        // quantizer step (narrowed in the f32 kernels)
	invStep float64
	eb      float64
	ksStep  int64 // index stride between points
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
// the indices ksStep apart. No bail conditions: the caller restores
// outlier positions afterwards.
//
//go:noescape
func applyRunF64(a *kernArgs) int64

// applyRunF32 is the eight-lane single-precision variant.
//
//go:noescape
func applyRunF32(a *kernArgs) int64

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

// applyRunAccel reconstructs the whole run through the vector kernel and
// reports whether it did; a run shorter than one group (4 float64, 8
// float32 lanes) is left to the caller's scalar loop. The kernel commits
// the run's full groups, then one last group that ends at the run's last
// point and overlaps them: a target reads only points the pass never
// writes, so recomputing one is exact.
func applyRunAccel[T grid.Scalar](data []T, ks []int32, r *interp.Run, step T) bool {
	if !useAVX2 {
		return false
	}
	lanes := 8
	if _, ok := any(data).([]float64); ok {
		lanes = 4
	}
	n := r.N
	if n < lanes {
		return false
	}
	// The kernel does not bound-check; the run's last target and index do.
	last := n - 1
	_ = data[r.Flat+last*r.Step]
	_ = ks[r.Seq+last*r.SeqStep]
	var a kernArgs // field by field, as in quantizeRunAccel
	a.fstep, a.ksStep = int64(r.Step), int64(r.SeqStep)
	a.off1, a.off3, a.mode = int64(r.Off1), int64(r.Off3), int64(r.Mode)
	a.step = float64(step)
	full := n &^ (lanes - 1)
	applyGroups(data, ks, r, &a, 0, full)
	if full < n {
		applyGroups(data, ks, r, &a, n-lanes, lanes)
	}
	return true
}

// applyGroups runs the width's apply kernel over cnt points of r, from its
// at-th on.
func applyGroups[T grid.Scalar](data []T, ks []int32, r *interp.Run, a *kernArgs, at, cnt int) {
	a.ks = unsafe.Pointer(&ks[r.Seq+at*r.SeqStep])
	a.f, a.n = int64(r.Flat+at*r.Step), int64(cnt)
	switch dt := any(data).(type) {
	case []float64:
		a.data = unsafe.Pointer(&dt[0])
		applyRunF64(a)
	case []float32:
		a.data = unsafe.Pointer(&dt[0])
		applyRunF32(a)
	}
}
