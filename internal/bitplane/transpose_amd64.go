//go:build amd64 && !purego

package bitplane

import (
	"unsafe"

	"repro/internal/cpu"
)

// useAVX2 gates the vector transpose kernels, and useGFNI picks the GFNI
// form of the merge kernel among them. Both start at whatever the CPUID
// probe found and can be forced off by setAVX2 and setGFNI in tests.
var (
	useAVX2 = cpu.X86.HasAVX2
	useGFNI = cpu.X86.HasGFNI
)

// setAVX2 forces the AVX2 transpose kernels on or off and reports whether
// they are active afterwards. Enabling is a no-op on hardware without AVX2,
// and under the purego build tag this always reports false. Tests use it to
// run the same suite through both paths; toggling concurrently with
// split or merge calls is not safe.
func setAVX2(on bool) bool {
	useAVX2 = on && cpu.X86.HasAVX2
	return useAVX2
}

// setGFNI forces the GFNI form of the merge kernel on or off and reports
// whether a merge runs it afterwards: only while the AVX2 kernels are on,
// never on hardware without GFNI. With it off, the AVX2 kernels merge by
// their shift-and-mask form. The same caveats as setAVX2 apply.
func setGFNI(on bool) bool {
	useGFNI = on && cpu.X86.HasGFNI
	return useGFNI && useAVX2
}

// splitAVX2 transposes iters×32 values starting at values, each first
// replaced by e ^ (e>>1 ^ e>>2) & pm with e = (v + nbm) ^ nbm, into the
// plane byte arrays: per iteration it writes 4 bytes at the current group
// offset into each of the 32 planes. Implemented in transpose_amd64.s.
//
//go:noescape
func splitAVX2(planes *[Planes]unsafe.Pointer, values *uint32, iters int, pm, nbm uint32)

// mergeDecodeAVX2 runs mergeDecodeGeneric's arithmetic over iters×32
// indices starting at ks. blocks is a bitmask of plane octets (bit b =
// planes 8b..8b+7) that contain at least one loaded plane: octets with a
// clear bit are skipped entirely and count as zero, and every plane of an
// octet with a set bit is read, so a plane not loaded there must point at
// zeros (zeroPlane). mergeDecodeGFNI is the same kernel with the GFNI
// forms of its transpose and unpredict. Implemented in transpose_amd64.s.
//
//go:noescape
func mergeDecodeAVX2(planes *[Planes]unsafe.Pointer, ks *int32, iters int, blocks uint8, keep uint32)

//go:noescape
func mergeDecodeGFNI(planes *[Planes]unsafe.Pointer, ks *int32, iters int, blocks uint8, keep uint32)

// splitRangeAccel runs the vector kernel over the longest 32-value-aligned
// prefix of [lo, hi) and returns the new lo for the scalar tail.
func splitRangeAccel(planes [][]byte, values []uint32, lo, hi int, pm, nbm uint32) int {
	n32 := (hi - lo) &^ 31
	if !useAVX2 || n32 == 0 || len(planes) < Planes {
		return lo
	}
	var ptrs [Planes]unsafe.Pointer
	for p := 0; p < Planes; p++ {
		ptrs[p] = unsafe.Pointer(&planes[p][lo>>3])
	}
	splitAVX2(&ptrs, &values[lo], n32>>5, pm, nbm)
	return lo + n32
}

// mergeChunk is the most values one merge kernel call covers: the span
// of zeroPlane.
const mergeChunk = 1 << 13

// zeroPlane is what the merge kernels read for a plane that is not loaded
// in an octet that has loaded ones. It is a variable so that a test can
// put a guard right after it.
var zeroPlane = make([]byte, mergeChunk/8)

// mergeDecodeAccel mirrors splitRangeAccel for MergeDecodeRange.
func mergeDecodeAccel(ks []int32, planes [][]byte, lo, hi int, keep uint32) int {
	end := lo + (hi-lo)&^31
	if !useAVX2 {
		return lo
	}
	for ; lo < end; lo += mergeChunk {
		n := min(end-lo, mergeChunk)
		ptrs, blocks := planePointers(planes, lo)
		if useGFNI {
			mergeDecodeGFNI(&ptrs, &ks[lo], n>>5, blocks, keep)
		} else {
			mergeDecodeAVX2(&ptrs, &ks[lo], n>>5, blocks, keep)
		}
	}
	return end
}

// planePointers returns the merge kernels' arguments for the value range
// starting at lo: each loaded plane's byte lo/8, zeroPlane for every other
// plane, and the bitmask of plane octets holding at least one loaded one.
func planePointers(planes [][]byte, lo int) (ptrs [Planes]unsafe.Pointer, blocks uint8) {
	for p := range ptrs {
		ptrs[p] = unsafe.Pointer(&zeroPlane[0])
		if p < len(planes) && planes[p] != nil {
			ptrs[p] = unsafe.Pointer(&planes[p][lo>>3])
			blocks |= 1 << uint(p>>3)
		}
	}
	return ptrs, blocks
}
