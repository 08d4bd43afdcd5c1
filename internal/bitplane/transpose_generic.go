//go:build !amd64 || purego

package bitplane

// setAVX2 is the stub for builds without vector kernels (non-amd64 targets
// and the purego build tag): there is nothing to enable, so it always
// reports false.
func setAVX2(on bool) bool { return false }

// setGFNI is setAVX2's twin for the merge kernel's GFNI form.
func setGFNI(on bool) bool { return false }

func splitRangeAccel(planes [][]byte, values []uint32, lo, hi int, pm, nbm uint32) int {
	return lo
}

func mergeDecodeAccel(ks []int32, planes [][]byte, lo, hi int, keep uint32) int {
	return lo
}
