//go:build amd64 && !purego

#include "textflag.h"

// AVX2 kernels for the 8×32 bit-matrix transpose behind SplitInto,
// SplitEncodeRange and MergeDecodeRange. Both process 32 values (4 groups
// of 8) per iteration.
//
// The split's trick: arrange value bytes so that within each 8-byte chunk
// of a YMM register the bytes belong to one fixed value-byte B, values in
// DESCENDING order (v7..v0). VPMOVMSKB then reads bit 7 of every byte, so
// after s left shifts mask bit (8g+t) = bit (7-s) of value (8g+7-t) — which
// is exactly bit t of the packed plane byte for plane p = 24-8B+s, group g.
// One VPMOVMSKB therefore yields a plane's bytes for 4 consecutive groups
// as a single little-endian uint32 store. Shifting with VPSLLD leaks bits
// across byte boundaries, but the leak climbs one bit per shift from bit 0
// and s <= 7, so it can never reach the bit-7 row VPMOVMSKB samples.
//
// The merge keeps each plane octet in registers from load to decode. Its 8
// planes' bytes for the 4 groups are broadcast-loaded and blended into one
// register, and the split's own byte shuffles bring group g's 8 plane
// bytes into qword g. Each qword is then an 8×8 bit matrix, plane by
// value, and one transpose of every qword turns it into the 8 values'
// bytes of that octet. The transpose has two forms: one VGF2P8AFFINEQB
// where the CPU has GFNI, else three delta swaps of shifts and logic. The
// four octets' bytes are joined into words by byte and word unpacks. The
// prediction is undone on the words by shifts and XORs; the GFNI form
// does it on the octets by affine maps before the join. Each word is then
// masked with keep and negabinary-decoded.

// shuffle<> gathers, per 128-bit lane of 4 values, byte B of each value
// into dword B with values reversed: P[i] = 4*(3-(i&3)) + (i>>2). The same
// 16-byte pattern is the merge's 4×4 byte transpose within a lane.
DATA shuffle<>+0(SB)/8, $0x0105090d0004080c
DATA shuffle<>+8(SB)/8, $0x03070b0f02060a0e
DATA shuffle<>+16(SB)/8, $0x0105090d0004080c
DATA shuffle<>+24(SB)/8, $0x03070b0f02060a0e
GLOBL shuffle<>(SB), RODATA|NOPTR, $32

// permute<> reorders the shuffled dwords [L0 L1 L2 L3 | H0 H1 H2 H3] into
// [H0 L0 H1 L1 H2 L2 H3 L3]: qword B becomes the descending 8-value chunk
// for value-byte B in the split, and qword g group g's 8 plane bytes in
// the merge.
DATA permute<>+0(SB)/8, $0x0000000000000004
DATA permute<>+8(SB)/8, $0x0000000100000005
DATA permute<>+16(SB)/8, $0x0000000200000006
DATA permute<>+24(SB)/8, $0x0000000300000007
GLOBL permute<>(SB), RODATA|NOPTR, $32

// nbmask<> is the negabinary mask 0xAAAAAAAA, broadcast to every dword.
DATA nbmask<>+0(SB)/4, $0xaaaaaaaa
GLOBL nbmask<>(SB), RODATA|NOPTR, $4

// PREDICT replaces the values in V by v ^ (v>>1 ^ v>>2) & pm, pm in Y14:
// the XOR prediction of all 32 planes at once, or nothing when pm is zero.
#define PREDICT(V) \
	VPSRLD $1, V, Y4  \
	VPXOR  V, Y4, Y4  \
	VPSRLD $1, Y4, Y4 \
	VPAND  Y14, Y4, Y4 \
	VPXOR  Y4, V, V

// STORE8 emits the 8 plane stores for one value-byte register: plane
// (base+s) gets the VPMOVMSKB mask of the register shifted left s times.
#define STORE8(T, base) \
	VPMOVMSKB T, AX                \
	MOVQ      (base*8)(R8), BX     \
	MOVL      AX, (BX)(R10*1)      \
	VPSLLD    $1, T, T             \
	VPMOVMSKB T, AX                \
	MOVQ      (base*8+8)(R8), BX   \
	MOVL      AX, (BX)(R10*1)      \
	VPSLLD    $1, T, T             \
	VPMOVMSKB T, AX                \
	MOVQ      (base*8+16)(R8), BX  \
	MOVL      AX, (BX)(R10*1)      \
	VPSLLD    $1, T, T             \
	VPMOVMSKB T, AX                \
	MOVQ      (base*8+24)(R8), BX  \
	MOVL      AX, (BX)(R10*1)      \
	VPSLLD    $1, T, T             \
	VPMOVMSKB T, AX                \
	MOVQ      (base*8+32)(R8), BX  \
	MOVL      AX, (BX)(R10*1)      \
	VPSLLD    $1, T, T             \
	VPMOVMSKB T, AX                \
	MOVQ      (base*8+40)(R8), BX  \
	MOVL      AX, (BX)(R10*1)      \
	VPSLLD    $1, T, T             \
	VPMOVMSKB T, AX                \
	MOVQ      (base*8+48)(R8), BX  \
	MOVL      AX, (BX)(R10*1)      \
	VPSLLD    $1, T, T             \
	VPMOVMSKB T, AX                \
	MOVQ      (base*8+56)(R8), BX  \
	MOVL      AX, (BX)(R10*1)

// ENCODE replaces the values in V by (v + nbm) ^ nbm, nbm in Y15: their
// negabinary codes when V holds int32 indices and nbm is 0xAAAAAAAA, or
// nothing when nbm is zero.
#define ENCODE(V) \
	VPADDD Y15, V, V \
	VPXOR  Y15, V, V

// func splitAVX2(planes *[32]unsafe.Pointer, values *uint32, iters int, pm, nbm uint32)
TEXT ·splitAVX2(SB), NOSPLIT, $0-32
	MOVQ    planes+0(FP), R8
	MOVQ    values+8(FP), R9
	MOVQ    iters+16(FP), R11
	XORQ    R10, R10
	VMOVDQU shuffle<>(SB), Y12
	VMOVDQU permute<>(SB), Y13
	MOVL    pm+24(FP), AX
	VMOVD   AX, X14
	VPBROADCASTD X14, Y14
	MOVL    nbm+28(FP), AX
	VMOVD   AX, X15
	VPBROADCASTD X15, Y15

splitloop:
	// Load 4 groups, encode, predict, and bring each into chunked
	// per-byte form.
	VMOVDQU (R9), Y0
	VMOVDQU 32(R9), Y1
	VMOVDQU 64(R9), Y2
	VMOVDQU 96(R9), Y3
	ENCODE(Y0)
	ENCODE(Y1)
	ENCODE(Y2)
	ENCODE(Y3)
	PREDICT(Y0)
	PREDICT(Y1)
	PREDICT(Y2)
	PREDICT(Y3)
	VPSHUFB Y12, Y0, Y0
	VPSHUFB Y12, Y1, Y1
	VPSHUFB Y12, Y2, Y2
	VPSHUFB Y12, Y3, Y3
	VPERMD  Y0, Y13, Y4
	VPERMD  Y1, Y13, Y5
	VPERMD  Y2, Y13, Y6
	VPERMD  Y3, Y13, Y7

	// 4×4 qword transpose: gather value-byte B's chunks of all 4 groups.
	VPUNPCKLQDQ Y5, Y4, Y8
	VPUNPCKHQDQ Y5, Y4, Y9
	VPUNPCKLQDQ Y7, Y6, Y10
	VPUNPCKHQDQ Y7, Y6, Y11
	VPERM2I128  $0x20, Y10, Y8, Y0  // value byte 0 -> planes 24..31
	VPERM2I128  $0x20, Y11, Y9, Y1  // value byte 1 -> planes 16..23
	VPERM2I128  $0x31, Y10, Y8, Y2  // value byte 2 -> planes 8..15
	VPERM2I128  $0x31, Y11, Y9, Y3  // value byte 3 -> planes 0..7

	STORE8(Y3, 0)
	STORE8(Y2, 8)
	STORE8(Y1, 16)
	STORE8(Y0, 24)

	ADDQ $128, R9
	ADDQ $4, R10
	DECQ R11
	JNZ  splitloop
	VZEROUPPER
	RET

// flip<> is the matrix operand that, with a plane octet's 8 bytes of one
// group as the matrix, makes VGF2P8AFFINEQB the 8×8 bit transpose of
// DELTASWAP: output byte j takes bit (7-j) of every plane byte, plane r at
// bit (7-r). unpredictA<> and carryC<> are the octet form of the
// prediction's inverse: for each byte of an octet's stored bits s, b = A·s
// ^ C·b' with b' the already unpredicted next more-significant octet (C
// reads only its two low bits, the recurrence's carry). Row b of a matrix
// is byte 7-b of its qword.
DATA flip<>+0(SB)/8, $0x0102040810204080
GLOBL flip<>(SB), RODATA|NOPTR, $8
DATA unpredictA<>+0(SB)/8, $0xdbb66cd8b060c080
GLOBL unpredictA<>(SB), RODATA|NOPTR, $8
DATA carryC<>+0(SB)/8, $0x0203010203010203
GLOBL carryC<>(SB), RODATA|NOPTR, $8

// swap9<>, swap18<> and swap36<> are DELTASWAP's masks: the bits each
// round moves up by 9, 18 and 36.
DATA swap9<>+0(SB)/8, $0x0055005500550055
GLOBL swap9<>(SB), RODATA|NOPTR, $8
DATA swap18<>+0(SB)/8, $0x0000333300003333
GLOBL swap18<>(SB), RODATA|NOPTR, $8
DATA swap36<>+0(SB)/8, $0x000000000f0f0f0f
GLOBL swap36<>(SB), RODATA|NOPTR, $8

// LOADOCTET assembles the current 4 bytes of planes 8b..8b+7 in V, dword d
// = plane 8b+7-d: one broadcast load per plane and a dword blend
// (BLENDPLANE), no shuffle port. shuffle<> and permute<> then bring group
// g's 8 plane bytes into qword g, plane 8b+r at byte r. XV is V's low
// half; Y4 is the temporary.
#define BLENDPLANE(p, d, V) \
	MOVQ         ((p)*8)(R8), BX \
	VPBROADCASTD (BX)(R10*1), Y4 \
	VPBLENDD     $(1<<d), Y4, V, V

#define LOADOCTET(b, XV, V) \
	MOVQ    ((8*b+7)*8)(R8), BX \
	VMOVD   (BX)(R10*1), XV     \
	BLENDPLANE(8*b+6, 1, V)     \
	BLENDPLANE(8*b+5, 2, V)     \
	BLENDPLANE(8*b+4, 3, V)     \
	BLENDPLANE(8*b+3, 4, V)     \
	BLENDPLANE(8*b+2, 5, V)     \
	BLENDPLANE(8*b+1, 6, V)     \
	BLENDPLANE(8*b+0, 7, V)     \
	VPSHUFB Y15, V, V           \
	VPERMD  V, Y14, V

// DELTASWAP and GFTRANSPOSE are the two forms of the 8×8 bit transpose
// of every qword of V, from plane bytes (plane r at byte r, value j at bit
// 7-j) to value bytes (value j at byte j, plane r at bit 7-r): output bit
// (8j+k) is input bit 63-(8k+j), the transpose about the antidiagonal.
// DELTASWAP runs it as three delta swaps by 36, 18 and 9 (masks in Y11,
// Y12, Y13; Y4 the temporary), shifts and logic only. GFTRANSPOSE is one
// VGF2P8AFFINEQB with V as the matrix and flip<> (Y13) as the operand.
#define SWAPROUND(V, s, M) \
	VPSRLQ $s, V, Y4  \
	VPXOR  V, Y4, Y4  \
	VPAND  M, Y4, Y4  \
	VPXOR  Y4, V, V   \
	VPSLLQ $s, Y4, Y4 \
	VPXOR  Y4, V, V

#define DELTASWAP(V) \
	SWAPROUND(V, 36, Y11) \
	SWAPROUND(V, 18, Y12) \
	SWAPROUND(V, 9, Y13)

#define GFTRANSPOSE(V) \
	VGF2P8AFFINEQB $0, V, Y13, V

// OCTET leaves in V the value bytes of plane octet b (planes 8b..8b+7,
// value byte 3-b) for the iteration's 32 values, value v at byte v: zero
// when the blocks mask (R12) has no bit b, else its planes loaded and
// transposed.
#define OCTET(b, XV, V, TRANSPOSE, skip) \
	VPXOR V, V, V       \
	TESTL $(1<<b), R12  \
	JZ    skip          \
	LOADOCTET(b, XV, V) \
	TRANSPOSE(V)        \
skip:

// JOIN interleaves the value bytes of the four octets in Y0..Y3 (Y0 the
// most significant) into words: values 0-3 | 16-19 in Y0, 4-7 | 20-23 in
// Y1, 8-11 | 24-27 in Y2 and 12-15 | 28-31 in Y3, low lane | high lane.
#define JOIN \
	VPUNPCKLBW Y2, Y3, Y4 \
	VPUNPCKHBW Y2, Y3, Y5 \
	VPUNPCKLBW Y0, Y1, Y6 \
	VPUNPCKHBW Y0, Y1, Y7 \
	VPUNPCKLWD Y6, Y4, Y0 \
	VPUNPCKHWD Y6, Y4, Y1 \
	VPUNPCKLWD Y7, Y5, Y2 \
	VPUNPCKHWD Y7, Y5, Y3

// UNPREDICT undoes the prediction of the 8 merged words in V, Y4 the
// temporary: u = s ^ s>>1, then u ^= u>>3, >>6, >>12, >>24.
#define UNPREDICT(V) \
	VPSRLD $1, V, Y4  \
	VPXOR  Y4, V, V   \
	VPSRLD $3, V, Y4  \
	VPXOR  Y4, V, V   \
	VPSRLD $6, V, Y4  \
	VPXOR  Y4, V, V   \
	VPSRLD $12, V, Y4 \
	VPXOR  Y4, V, V   \
	VPSRLD $24, V, Y4 \
	VPXOR  Y4, V, V

// GFUNPREDICT undoes the prediction on the octets in Y0..Y3 before they
// are joined, most significant first, each octet's carry from the one
// before it (A in Y12, C in Y11, Y4 the temporary).
#define GFUNPREDICT \
	VGF2P8AFFINEQB $0, Y12, Y0, Y0 \
	VGF2P8AFFINEQB $0, Y11, Y0, Y4 \
	VGF2P8AFFINEQB $0, Y12, Y1, Y1 \
	VPXOR          Y4, Y1, Y1      \
	VGF2P8AFFINEQB $0, Y11, Y1, Y4 \
	VGF2P8AFFINEQB $0, Y12, Y2, Y2 \
	VPXOR          Y4, Y2, Y2      \
	VGF2P8AFFINEQB $0, Y11, Y2, Y4 \
	VGF2P8AFFINEQB $0, Y12, Y3, Y3 \
	VPXOR          Y4, Y3, Y3

// DECODE masks the unpredicted words in V with keep (Y9) and
// negabinary-decodes them: (u ^ m) − m, m = 0xAAAAAAAA in Y10.
#define DECODE(V) \
	VPAND Y9, V, V   \
	VPXOR Y10, V, V  \
	VPSUBD Y10, V, V

// STORE32 writes the iteration's 32 indices from JOIN's order.
#define STORE32 \
	VMOVDQU      X0, 0(R9)       \
	VMOVDQU      X1, 16(R9)      \
	VMOVDQU      X2, 32(R9)      \
	VMOVDQU      X3, 48(R9)      \
	VEXTRACTI128 $1, Y0, 64(R9)  \
	VEXTRACTI128 $1, Y1, 80(R9)  \
	VEXTRACTI128 $1, Y2, 96(R9)  \
	VEXTRACTI128 $1, Y3, 112(R9)

// MERGESETUP loads both merge kernels' arguments and shared constants.
#define MERGESETUP \
	MOVQ         planes+0(FP), R8  \
	MOVQ         ks+8(FP), R9      \
	MOVQ         iters+16(FP), R11 \
	MOVBLZX      blocks+24(FP), R12 \
	XORQ         R10, R10          \
	VMOVDQU      shuffle<>(SB), Y15 \
	VMOVDQU      permute<>(SB), Y14 \
	VPBROADCASTD nbmask<>(SB), Y10 \
	VPBROADCASTD keep+28(FP), Y9

// NEXT32 advances to the next 32 values and loops to label while any are
// left, then returns.
#define NEXT32(label) \
	ADDQ $128, R9 \
	ADDQ $4, R10  \
	DECQ R11      \
	JNZ  label    \
	VZEROUPPER    \
	RET

// func mergeDecodeAVX2(planes *[32]unsafe.Pointer, ks *int32, iters int, blocks uint8, keep uint32)
//
// Every plane pointer of an octet whose blocks bit is set must be
// readable for iters×4 bytes: the caller points the planes not loaded at
// zeros. The octets' value bytes are joined into words, and each word is
// unpredicted, masked with keep and decoded: mergeDecodeGeneric's
// arithmetic.
TEXT ·mergeDecodeAVX2(SB), NOSPLIT, $0-32
	MERGESETUP
	VPBROADCASTQ swap36<>(SB), Y11
	VPBROADCASTQ swap18<>(SB), Y12
	VPBROADCASTQ swap9<>(SB), Y13

avx2loop:
	OCTET(0, X0, Y0, DELTASWAP, avx2o0)
	OCTET(1, X1, Y1, DELTASWAP, avx2o1)
	OCTET(2, X2, Y2, DELTASWAP, avx2o2)
	OCTET(3, X3, Y3, DELTASWAP, avx2o3)
	JOIN
	UNPREDICT(Y0)
	UNPREDICT(Y1)
	UNPREDICT(Y2)
	UNPREDICT(Y3)
	DECODE(Y0)
	DECODE(Y1)
	DECODE(Y2)
	DECODE(Y3)
	STORE32
	NEXT32(avx2loop)

// func mergeDecodeGFNI(planes *[32]unsafe.Pointer, ks *int32, iters int, blocks uint8, keep uint32)
//
// mergeDecodeAVX2 with GFNI: each octet is transposed by one affine
// instruction, and unpredicted before the join by one more and, for the
// carry out of the octet above, a second and an XOR.
TEXT ·mergeDecodeGFNI(SB), NOSPLIT, $0-32
	MERGESETUP
	VPBROADCASTQ carryC<>(SB), Y11
	VPBROADCASTQ unpredictA<>(SB), Y12
	VPBROADCASTQ flip<>(SB), Y13

gfniloop:
	OCTET(0, X0, Y0, GFTRANSPOSE, gfnio0)
	OCTET(1, X1, Y1, GFTRANSPOSE, gfnio1)
	OCTET(2, X2, Y2, GFTRANSPOSE, gfnio2)
	OCTET(3, X3, Y3, GFTRANSPOSE, gfnio3)
	GFUNPREDICT
	JOIN
	DECODE(Y0)
	DECODE(Y1)
	DECODE(Y2)
	DECODE(Y3)
	STORE32
	NEXT32(gfniloop)
