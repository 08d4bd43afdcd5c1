// Package cpu is a hand-rolled CPU feature probe for the assembly kernels
// in this repository. The standard library's internal/cpu is off limits and
// a third-party detector would be the module's only dependency, so the two
// instructions the probe needs (CPUID, XGETBV) live here. On non-amd64
// targets — or under the purego build tag — every feature reports false and
// the pure-Go reference kernels are the only path.
package cpu

// X86 reports the features the dispatch tables consult, filled in by the
// amd64 init. HasAVX2 requires AVX2 itself plus OS support for YMM state
// (OSXSAVE and XCR0 enabling XMM+YMM), the condition for safely executing
// VEX.256 code. HasGFNI reports the Galois-field instructions, which the
// kernels use in their VEX.256 form: it is set only under the same YMM
// state condition.
var X86 struct {
	HasAVX2 bool
	HasGFNI bool
}
