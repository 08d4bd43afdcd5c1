//go:build amd64 && !purego

package cpu

// cpuid executes CPUID with the given leaf and subleaf.
//
//go:noescape
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0 (the OS-enabled state mask).
//
//go:noescape
func xgetbv() (eax, edx uint32)

func init() {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave = 1 << 27
	const avx = 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return
	}
	// XCR0 bits 1 (SSE/XMM) and 2 (AVX/YMM) must both be OS-enabled.
	xcr0, _ := xgetbv()
	if xcr0&6 != 6 {
		return
	}
	_, ebx7, ecx7, _ := cpuid(7, 0)
	const avx2 = 1 << 5
	const gfni = 1 << 8
	X86.HasAVX2 = ebx7&avx2 != 0
	X86.HasGFNI = ecx7&gfni != 0
}
