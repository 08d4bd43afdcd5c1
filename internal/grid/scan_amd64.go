//go:build amd64 && !purego

package grid

import "repro/internal/cpu"

var useAVX2 = cpu.X86.HasAVX2

// setAVX2 forces the vector scan on or off and reports whether it is active
// afterwards; tests use it to drive both paths.
func setAVX2(on bool) bool {
	useAVX2 = on && cpu.X86.HasAVX2
	return useAVX2
}

// scanF32 folds n float32 values from src (n a multiple of 32) into the
// lane extrema lo and hi with VMINPS/VMAXPS, whose "first operand if it is
// strictly smaller (larger), else the second" is the sequential rule, NaN
// and tied zeros included. It copies them to dst too unless dst is nil.
//
//go:noescape
func scanF32(dst, src *float32, n int, lo, hi *[scanLanes]float32)

// scanF64 is scanF32 for float64, 16 values an iteration into lanes 0..15.
//
//go:noescape
func scanF64(dst, src *float64, n int, lo, hi *[scanLanes]float64)

// copyRangeAccel runs the vector scan over the longest prefix of src the
// kernel takes and returns its length.
func copyRangeAccel[T Scalar](dst, src []T, lo, hi *[scanLanes]T) int {
	if !useAVX2 {
		return 0
	}
	switch s := any(src).(type) {
	case []float32:
		n := len(s) &^ 31
		if n == 0 {
			return 0
		}
		var d *float32
		if dst != nil {
			d = &any(dst).([]float32)[0]
		}
		scanF32(d, &s[0], n, any(lo).(*[scanLanes]float32), any(hi).(*[scanLanes]float32))
		return n
	case []float64:
		n := len(s) &^ 15
		if n == 0 {
			return 0
		}
		var d *float64
		if dst != nil {
			d = &any(dst).([]float64)[0]
		}
		scanF64(d, &s[0], n, any(lo).(*[scanLanes]float64), any(hi).(*[scanLanes]float64))
		return n
	}
	return 0
}
