//go:build !amd64 || purego

package core

import (
	"repro/internal/grid"
	"repro/internal/interp"
)

// setAVX2 reports false: this build has no vector kernels, and the
// generic loops in kernels.go are the only path.
func setAVX2(on bool) bool { return false }

func applyAccel[T grid.Scalar](data []T, ks []int32, r *interp.Run, step T) bool {
	return false
}

func quantizeAccel[T grid.Scalar](w []T, ks []int32, r *interp.Run, at int, step, invStep T, eb float64) int {
	return -2
}
