// Package bitplane implements the bitplane decomposition at the heart of
// IPComp's progressive coder (paper §4.3–4.4). A slice of 32-digit
// negabinary integers is transposed into 32 bit vectors ("planes"): plane p
// holds bit p of every integer, with element i at bit (7 - i mod 8) of
// byte i/8. Planes are stored most-significant first so that loading a
// prefix of planes yields a uniformly truncated (lower precision) version
// of every value — which is also why a plane prefix is all a network
// server needs to ship for any requested fidelity.
//
// The package also implements the paper's predictive bitplane coding
// (§4.4.1): each bit is XOR-ed with the XOR of its two more-significant
// neighbours in the same integer. The prediction is causal with respect to
// plane loading order (MSB first), so a partially loaded archive can always
// undo it.
//
// The prediction is also a word operation. Read a value's bits as a
// polynomial over GF(2) in x, a right shift by one: the stored word is
// s = b ^ b>>1 ^ b>>2, b times 1+x+x². Since (1+x+x²)(1+x) = 1+x³, the
// inverse is b = (s ^ s>>1) / (1+x³), and 1/(1+x³) is the product of
// 1+x³, 1+x⁶, 1+x¹² and 1+x²⁴ once powers past x³¹ are dropped: four
// shift-XORs. The coder therefore never predicts plane by plane:
// SplitEncodeRange predicts each code before the transpose, and
// MergeDecodeRange undoes it on the merged words of a loaded prefix of
// planes — the planes not loaded count as zero, and the bits the
// recurrence spills below the last loaded plane are masked off — before it
// negabinary-decodes in the same pass. A prefix is always merged whole, so
// no bits of an earlier merge enter the recurrence.
//
// Both kernels run on a word-level 8×32 bit-matrix transpose, with an AVX2
// form on amd64, and take an 8-aligned value range so that internal/core
// can shard a level across goroutines. The AVX2 merge holds every loaded
// plane octet in registers from its load to the decoded indices: a byte
// shuffle gives each group of 8 values its 8 plane bytes as one qword,
// and one 8×8 bit transpose per qword gives that octet of the 8 values.
// The transpose is a single VGF2P8AFFINEQB where CPUID reports GFNI, which
// then also undoes the prediction octet by octet as GF(2) affine maps; on
// other AVX2 CPUs it is three delta swaps, and the prediction is undone on
// the joined words. The CPU picks the form; no option does. SplitInto, MergeInto, PredictEncode
// and PredictDecode are the plain-plane forms for callers that hold raw
// values or planes rather than quantization indices: the comparators under
// internal/baselines and the per-layer probes. SplitInto shares the coder's
// split kernel; MergeInto is the scalar block merge of MergeDecodeRange's
// fallback path.
package bitplane
