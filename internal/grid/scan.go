package grid

import "math"

// scanLanes is the number of independent accumulators CopyRange keeps per
// extremum. Each lane sees its elements in index order, so a lane's
// minimum is what the sequential loop would keep over that lane alone; the
// vector kernel carries them in registers, four AVX2 registers per
// extremum for float32.
const scanLanes = 32

// CopyRange copies src into dst, when dst is non-nil, and returns the least
// and greatest values of src that are not NaN — (0, 0) when there are none.
// It is every input scan of the compressor in one pass: Range, the
// relative bound, and Compress's copy of its input with the magnitude that
// the float32 format records.
//
// lo and hi are bit for bit what the sequential loop "start from the first
// non-NaN value, keep any value strictly below (above) it" returns: the
// lanes apply exactly that rule, equal non-zero values have one bit pattern,
// and where both zeros tie the scan falls back to the first zero of src.
func CopyRange[T Scalar](dst, src []T) (lo, hi T) {
	if dst != nil {
		dst = dst[:len(src)]
	}
	var los, his [scanLanes]T
	inf := T(math.Inf(1))
	for l := range los {
		los[l], his[l] = inf, -inf
	}
	i := copyRangeAccel(dst, src, &los, &his)
	if dst != nil {
		copy(dst[i:], src[i:])
	}
	for ; i < len(src); i++ {
		v, l := src[i], i%scanLanes
		if v < los[l] {
			los[l] = v
		}
		if v > his[l] {
			his[l] = v
		}
	}
	lo, hi = los[0], his[0]
	for l := 1; l < scanLanes; l++ {
		if los[l] < lo {
			lo = los[l]
		}
		if his[l] > hi {
			hi = his[l]
		}
	}
	if lo > hi {
		return 0, 0 // nothing but NaN
	}
	return firstZero(src, lo, &los), firstZero(src, hi, &his)
}

// firstZero returns v unless it is a zero that lanes disagree on the sign
// of; then the sequential loop's answer is the first zero of src.
func firstZero[T Scalar](src []T, v T, lanes *[scanLanes]T) T {
	if v != 0 {
		return v
	}
	neg := math.Signbit(float64(v))
	for _, x := range lanes {
		if x == 0 && math.Signbit(float64(x)) != neg {
			for _, y := range src {
				if y == 0 {
					return y
				}
			}
		}
	}
	return v
}
