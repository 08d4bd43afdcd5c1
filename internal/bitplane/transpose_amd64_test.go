//go:build amd64 && !purego

package bitplane

import (
	"math/rand"
	"testing"
)

// TestMergeKernelCallStaysInZeroPlane holds the merge kernels to their
// per-call bound: every plane an octet does not hold reads zeroPlane, so
// one call may cover at most its mergeChunk values. The zero span is put
// right in front of a guard of 0xFF bytes, and levels of three calls'
// worth of values, with octets holding one loaded plane beside unloaded
// ones, must still merge to the truncated codes on every path: a call
// that ran past the zero span would merge the guard's ones.
func TestMergeKernelCallStaysInZeroPlane(t *testing.T) {
	guarded := make([]byte, 2*len(zeroPlane))
	for i := len(zeroPlane); i < len(guarded); i++ {
		guarded[i] = 0xFF
	}
	saved := zeroPlane
	zeroPlane = guarded[:len(saved):len(saved)]
	defer func() { zeroPlane = saved }()
	rng := rand.New(rand.NewSource(8))
	n := 3*mergeChunk + 40
	for _, used := range []int{9, 17, 32} {
		codes := randomCodes(rng, n, used)
		for _, want := range []int{1, 5, used - 1} {
			newMergeCase(codes, used, want, 0, n).check(t)
			newMergeCase(codes, used, want, 8, n-mergeChunk/2).check(t)
		}
	}
}
