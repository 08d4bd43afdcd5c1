//go:build !amd64 || purego

package core

import (
	"repro/internal/grid"
	"repro/internal/interp"
)

// This build has no vector kernels: the generic loops in kernels.go are
// the only path. asmKernels is a constant so the compiler deletes every
// dispatch branch outright.
const asmKernels = false

// setAVX2 reports false: there is nothing to enable.
func setAVX2(on bool) bool { return false }

func quantizeRunAccel[T grid.Scalar](w []T, ks []int32, r *interp.Run, f, seq, n int, step, invStep T, eb float64) int {
	return 0
}

func applyAccel[T grid.Scalar](data []T, ks []int32, r *interp.Run, step T) bool {
	return false
}

func quantizePairsAccel[T grid.Scalar](w []T, ks []int32, r *interp.Run, at int, step, invStep T, eb float64) int {
	return -2
}
