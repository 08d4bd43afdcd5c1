//go:build !amd64 || purego

package grid

// setAVX2 reports false: this build has no vector scan.
func setAVX2(on bool) bool { return false }

func copyRangeAccel[T Scalar](dst, src []T, lo, hi *[scanLanes]T) int { return 0 }
