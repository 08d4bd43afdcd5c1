//go:build amd64 && !purego

#include "textflag.h"

// AVX2 kernels for the 8×32 bit-matrix transpose behind SplitInto,
// SplitEncodeRange and MergeDecodeRange. Both process 32 values (4 groups
// of 8) per iteration.
//
// The core trick: arrange value bytes so that within each 8-byte chunk of a
// YMM register the bytes belong to one fixed value-byte B, values in
// DESCENDING order (v7..v0). VPMOVMSKB then reads bit 7 of every byte, so
// after s left shifts mask bit (8g+t) = bit (7-s) of value (8g+7-t) — which
// is exactly bit t of the packed plane byte for plane p = 24-8B+s, group g.
// One VPMOVMSKB therefore yields a plane's bytes for 4 consecutive groups
// as a single little-endian uint32 store. Shifting with VPSLLD leaks bits
// across byte boundaries, but the leak climbs one bit per shift from bit 0
// and s <= 7, so it can never reach the bit-7 row VPMOVMSKB samples.

// shuffle<> gathers, per 128-bit lane of 4 values, byte B of each value
// into dword B with values reversed: P[i] = 4*(3-(i&3)) + (i>>2). The same
// 16-byte pattern is also the 4×4 byte transpose ROW applies in the merge.
DATA shuffle<>+0(SB)/8, $0x0105090d0004080c
DATA shuffle<>+8(SB)/8, $0x03070b0f02060a0e
DATA shuffle<>+16(SB)/8, $0x0105090d0004080c
DATA shuffle<>+24(SB)/8, $0x03070b0f02060a0e
GLOBL shuffle<>(SB), RODATA|NOPTR, $32

// permute<> reorders the shuffled dwords [L0 L1 L2 L3 | H0 H1 H2 H3] into
// [H0 L0 H1 L1 H2 L2 H3 L3]: qword B becomes the descending 8-value chunk
// for value-byte B.
DATA permute<>+0(SB)/8, $0x0000000000000004
DATA permute<>+8(SB)/8, $0x0000000100000005
DATA permute<>+16(SB)/8, $0x0000000200000006
DATA permute<>+24(SB)/8, $0x0000000300000007
GLOBL permute<>(SB), RODATA|NOPTR, $32

// mergeA<>/mergeB<> rebuild the chunked byte order for merge: output byte
// (8g+t) = C byte (4t+g), where C holds the 8 plane dwords of one octet
// (dword j = plane 8b+7-j). mergeA picks the sources that sit in the same
// lane of C, mergeB the ones that need the lane-swapped copy.
DATA mergeA<>+0(SB)/8, $0x808080800c080400
DATA mergeA<>+8(SB)/8, $0x808080800d090501
DATA mergeA<>+16(SB)/8, $0x0e0a060280808080
DATA mergeA<>+24(SB)/8, $0x0f0b070380808080
GLOBL mergeA<>(SB), RODATA|NOPTR, $32

DATA mergeB<>+0(SB)/8, $0x0c08040080808080
DATA mergeB<>+8(SB)/8, $0x0d09050180808080
DATA mergeB<>+16(SB)/8, $0x808080800e0a0602
DATA mergeB<>+24(SB)/8, $0x808080800f0b0703
GLOBL mergeB<>(SB), RODATA|NOPTR, $32

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

// LOADPLANE loads the current 4 plane bytes of plane `idx` into AX, or zero
// when the plane is nil (not loaded — progressive truncation).
#define LOADPLANE(idx) \
	MOVQ  ((idx)*8)(R8), BX   \
	XORL  AX, AX              \
	TESTQ BX, BX              \
	JZ    2(PC)               \
	MOVL  (BX)(R10*1), AX

// MASK8 extracts the 8 masks of one octet register T into the scratch
// column for block b (dword s*4+b of the scratch area).
#define MASK8(T, b) \
	VPMOVMSKB T, AX                  \
	MOVL      AX, scratch-128+(b*4)(SP)  \
	VPSLLD    $1, T, T               \
	VPMOVMSKB T, AX                  \
	MOVL      AX, scratch-128+(16+b*4)(SP) \
	VPSLLD    $1, T, T               \
	VPMOVMSKB T, AX                  \
	MOVL      AX, scratch-128+(32+b*4)(SP) \
	VPSLLD    $1, T, T               \
	VPMOVMSKB T, AX                  \
	MOVL      AX, scratch-128+(48+b*4)(SP) \
	VPSLLD    $1, T, T               \
	VPMOVMSKB T, AX                  \
	MOVL      AX, scratch-128+(64+b*4)(SP) \
	VPSLLD    $1, T, T               \
	VPMOVMSKB T, AX                  \
	MOVL      AX, scratch-128+(80+b*4)(SP) \
	VPSLLD    $1, T, T               \
	VPMOVMSKB T, AX                  \
	MOVL      AX, scratch-128+(96+b*4)(SP) \
	VPSLLD    $1, T, T               \
	VPMOVMSKB T, AX                  \
	MOVL      AX, scratch-128+(112+b*4)(SP)

// MERGEBLOCK builds the chunked octet register for planes 8b..8b+7 and
// spills its 8 masks; a clear bit in the blocks mask leaves the scratch
// column at its pre-zeroed state.
#define MERGEBLOCK(b, skiplabel) \
	TESTL $(1<<b), R12        \
	JZ    skiplabel           \
	LOADPLANE(8*b+7)          \
	VMOVD AX, X4              \
	LOADPLANE(8*b+6)          \
	VPINSRD $1, AX, X4, X4    \
	LOADPLANE(8*b+5)          \
	VPINSRD $2, AX, X4, X4    \
	LOADPLANE(8*b+4)          \
	VPINSRD $3, AX, X4, X4    \
	LOADPLANE(8*b+3)          \
	VMOVD AX, X5              \
	LOADPLANE(8*b+2)          \
	VPINSRD $1, AX, X5, X5    \
	LOADPLANE(8*b+1)          \
	VPINSRD $2, AX, X5, X5    \
	LOADPLANE(8*b+0)          \
	VPINSRD $3, AX, X5, X5    \
	VINSERTI128 $1, X5, Y4, Y4 \
	VPERM2I128  $0x01, Y4, Y4, Y5 \
	VPSHUFB Y14, Y4, Y4       \
	VPSHUFB Y15, Y5, Y5       \
	VPOR    Y5, Y4, Y4        \
	MASK8(Y4, b)              \
skiplabel:

// ROW loads scratch row s (the four per-octet masks) into X as the 4 values
// 8g+s, g = 0..3, by a 4×4 byte transpose.
#define ROW(s, X) \
	VMOVDQU scratch-128+(s*16)(SP), X \
	VPSHUFB X13, X, X

// DECODE8 writes the 8 indices at off(R9) decoded from the 8 merged, still
// predicted words in V: mergeDecodeGeneric's arithmetic, Y4 as temporary.
#define DECODE8(V, off) \
	VPSRLD  $1, V, Y4   \
	VPXOR   Y4, V, V    \
	VPSRLD  $3, V, Y4   \
	VPXOR   Y4, V, V    \
	VPSRLD  $6, V, Y4   \
	VPXOR   Y4, V, V    \
	VPSRLD  $12, V, Y4  \
	VPXOR   Y4, V, V    \
	VPSRLD  $24, V, Y4  \
	VPXOR   Y4, V, V    \
	VPAND   Y9, V, V    \
	VPXOR   Y8, V, V    \
	VPSUBD  Y8, V, V    \
	VMOVDQU V, off(R9)

// func mergeDecodeAVX2(planes *[32]unsafe.Pointer, ks *int32, iters int, blocks uint8, keep uint32)
//
// MERGEBLOCK spills the masks of each loaded plane octet into 8 scratch
// rows, zeroed once: columns of skipped octets are never written, so they
// keep contributing zero bits in every iteration. The rows' 32 values then
// stay in registers: ROW gives value 8g+s in dword g of Xs, and a 4×4 dword
// transpose per lane of [Xs | Xs+4] turns them into the 8 values of group g
// in Yg. DECODE8 undoes the prediction (u = s ^ s>>1, then u ^= u>>3, >>6,
// >>12, >>24), masks with keep and negabinary-decodes: (u ^ m) − m, m =
// 0xAAAAAAAA.
TEXT ·mergeDecodeAVX2(SB), NOSPLIT, $128-32
	MOVQ    planes+0(FP), R8
	MOVQ    ks+8(FP), R9
	MOVQ    iters+16(FP), R11
	MOVBLZX blocks+24(FP), R12
	XORQ    R10, R10
	VMOVDQU mergeA<>(SB), Y14
	VMOVDQU mergeB<>(SB), Y15
	VMOVDQU shuffle<>(SB), X13
	VPBROADCASTD nbmask<>(SB), Y8
	MOVL    keep+28(FP), AX
	VMOVD   AX, X9
	VPBROADCASTD X9, Y9

	VPXOR   Y0, Y0, Y0
	VMOVDQU Y0, scratch-128(SP)
	VMOVDQU Y0, scratch-96(SP)
	VMOVDQU Y0, scratch-64(SP)
	VMOVDQU Y0, scratch-32(SP)

mdloop:
	MERGEBLOCK(0, md0)
	MERGEBLOCK(1, md1)
	MERGEBLOCK(2, md2)
	MERGEBLOCK(3, md3)

	ROW(0, X0)
	ROW(1, X1)
	ROW(2, X2)
	ROW(3, X3)
	ROW(4, X4)
	ROW(5, X5)
	ROW(6, X6)
	ROW(7, X7)
	VINSERTI128 $1, X4, Y0, Y0
	VINSERTI128 $1, X5, Y1, Y1
	VINSERTI128 $1, X6, Y2, Y2
	VINSERTI128 $1, X7, Y3, Y3
	VPUNPCKLDQ  Y1, Y0, Y4
	VPUNPCKHDQ  Y1, Y0, Y5
	VPUNPCKLDQ  Y3, Y2, Y6
	VPUNPCKHDQ  Y3, Y2, Y7
	VPUNPCKLQDQ Y6, Y4, Y0 // values 0..7
	VPUNPCKHQDQ Y6, Y4, Y1 // values 8..15
	VPUNPCKLQDQ Y7, Y5, Y2 // values 16..23
	VPUNPCKHQDQ Y7, Y5, Y3 // values 24..31

	DECODE8(Y0, 0)
	DECODE8(Y1, 32)
	DECODE8(Y2, 64)
	DECODE8(Y3, 96)

	ADDQ $128, R9
	ADDQ $4, R10
	DECQ R11
	JNZ  mdloop
	VZEROUPPER
	RET
