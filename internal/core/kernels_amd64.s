//go:build amd64 && !purego

#include "go_asm.h"
#include "textflag.h"

// AVX2 kernels for the fused predict+quantize and dequantize+apply run
// loops. The floating-point expression
// ORDER matches the generic kernels operation for operation (no FMA — Go
// does not contract, and archives must be bit-identical across paths).
// math.Round (half away from zero) is emulated over VROUNDPD/VROUNDPS
// (half to even): a tie leaves qf-k0 at exactly ±0.5, and the adjustment
// +1 when diff==+0.5 && qf>0 / -1 when diff==-0.5 && qf<0 lands on the
// away-from-zero integer. All guard compares are ordered, so any NaN lane
// fails the group and the scalar path (which owns the outlier protocol)
// takes over.
//
// The kernels take two lane shapes.
//
//   - Strided (quantizeRun*, applyRun*): lanes fstep apart, indices ksStep
//     apart — a row of a coarse level, or a column of a block across its
//     rows (a column walks its indices a row of targets apart). Every
//     operand is gathered lane by lane (LOAD4/LOAD8), the indices read
//     with strided inserts (LOADK4) or written with strided extracts
//     (STOREK4), the results scattered (STORE4/STORE8F).
//   - Pairs (quantizePairs*, applyPairs*): lanes 2 elements apart in one
//     row, indices contiguous — the targets of every level-1 row, 7/8 of
//     a field's values. Each operand is two whole-vector loads that end on
//     its last lane and a lane deinterleave (PLOAD4/PLOAD8: VSHUFPD or
//     VSHUFPS, then VPERMPD), the indices one load or store, and the
//     results go to the even lanes of the group's first vector and the
//     odd lanes of the vector ending on its last target by two masked
//     stores, so no lane the pass does not own is ever written.
//
// Every kernel takes a whole block of rows a call (kernArgs.rows, rowStep,
// ksRowStep), with data and indices at the block's first target, and
// commits whole groups. The quantize kernels go group by group across the
// rows (the first group of every row, then the second, …) from group
// kernArgs.at, numbered g·rows + row, and return the first group they do
// not commit, or −1. In the apply kernels and the pair quantize kernels,
// a row that is not a whole number of groups ends with one more group
// that ends on its last point and overlaps the groups before it. The
// apply kernels recompute the overlap, which is exact because a target
// reads only points its pass never writes. A quantized point's work value
// is already its reconstruction, so the pair quantize kernels commit only
// the new lanes of the overlapped group (their tail masks), and the
// strided quantize kernels return a row's last group shorter than a
// vector as not committed, to the scalar loop.
//
// Register conventions of the strided kernels:
//	R8  = *kernArgs     AX  = the group's first target
//	BX  = off1 bytes    CX  = off3 bytes
//	R13 = elem stride   R15 = 3*stride
//	R10 = the group's first index
//	R9/R14 = ks stride / 3*ks stride bytes
//	SI/DI/DX            scratch

DATA nine4<>+0(SB)/8, $0x4022000000000000
DATA nine4<>+8(SB)/8, $0x4022000000000000
DATA nine4<>+16(SB)/8, $0x4022000000000000
DATA nine4<>+24(SB)/8, $0x4022000000000000
GLOBL nine4<>(SB), RODATA|NOPTR, $32

DATA sixt4<>+0(SB)/8, $0x3fb0000000000000
DATA sixt4<>+8(SB)/8, $0x3fb0000000000000
DATA sixt4<>+16(SB)/8, $0x3fb0000000000000
DATA sixt4<>+24(SB)/8, $0x3fb0000000000000
GLOBL sixt4<>(SB), RODATA|NOPTR, $32

DATA half4<>+0(SB)/8, $0x3fe0000000000000
DATA half4<>+8(SB)/8, $0x3fe0000000000000
DATA half4<>+16(SB)/8, $0x3fe0000000000000
DATA half4<>+24(SB)/8, $0x3fe0000000000000
GLOBL half4<>(SB), RODATA|NOPTR, $32

DATA neghalf4<>+0(SB)/8, $0xbfe0000000000000
DATA neghalf4<>+8(SB)/8, $0xbfe0000000000000
DATA neghalf4<>+16(SB)/8, $0xbfe0000000000000
DATA neghalf4<>+24(SB)/8, $0xbfe0000000000000
GLOBL neghalf4<>(SB), RODATA|NOPTR, $32

DATA one4<>+0(SB)/8, $0x3ff0000000000000
DATA one4<>+8(SB)/8, $0x3ff0000000000000
DATA one4<>+16(SB)/8, $0x3ff0000000000000
DATA one4<>+24(SB)/8, $0x3ff0000000000000
GLOBL one4<>(SB), RODATA|NOPTR, $32

// nb.MaxIndex = 1<<30 as float64.
DATA max4<>+0(SB)/8, $0x41d0000000000000
DATA max4<>+8(SB)/8, $0x41d0000000000000
DATA max4<>+16(SB)/8, $0x41d0000000000000
DATA max4<>+24(SB)/8, $0x41d0000000000000
GLOBL max4<>(SB), RODATA|NOPTR, $32

DATA absd4<>+0(SB)/8, $0x7fffffffffffffff
DATA absd4<>+8(SB)/8, $0x7fffffffffffffff
DATA absd4<>+16(SB)/8, $0x7fffffffffffffff
DATA absd4<>+24(SB)/8, $0x7fffffffffffffff
GLOBL absd4<>(SB), RODATA|NOPTR, $32

DATA nine8<>+0(SB)/8, $0x4110000041100000
DATA nine8<>+8(SB)/8, $0x4110000041100000
DATA nine8<>+16(SB)/8, $0x4110000041100000
DATA nine8<>+24(SB)/8, $0x4110000041100000
GLOBL nine8<>(SB), RODATA|NOPTR, $32

DATA sixt8<>+0(SB)/8, $0x3d8000003d800000
DATA sixt8<>+8(SB)/8, $0x3d8000003d800000
DATA sixt8<>+16(SB)/8, $0x3d8000003d800000
DATA sixt8<>+24(SB)/8, $0x3d8000003d800000
GLOBL sixt8<>(SB), RODATA|NOPTR, $32

DATA half8<>+0(SB)/8, $0x3f0000003f000000
DATA half8<>+8(SB)/8, $0x3f0000003f000000
DATA half8<>+16(SB)/8, $0x3f0000003f000000
DATA half8<>+24(SB)/8, $0x3f0000003f000000
GLOBL half8<>(SB), RODATA|NOPTR, $32

DATA neghalf8<>+0(SB)/8, $0xbf000000bf000000
DATA neghalf8<>+8(SB)/8, $0xbf000000bf000000
DATA neghalf8<>+16(SB)/8, $0xbf000000bf000000
DATA neghalf8<>+24(SB)/8, $0xbf000000bf000000
GLOBL neghalf8<>(SB), RODATA|NOPTR, $32

DATA one8<>+0(SB)/8, $0x3f8000003f800000
DATA one8<>+8(SB)/8, $0x3f8000003f800000
DATA one8<>+16(SB)/8, $0x3f8000003f800000
DATA one8<>+24(SB)/8, $0x3f8000003f800000
GLOBL one8<>(SB), RODATA|NOPTR, $32

DATA max8<>+0(SB)/8, $0x4e8000004e800000
DATA max8<>+8(SB)/8, $0x4e8000004e800000
DATA max8<>+16(SB)/8, $0x4e8000004e800000
DATA max8<>+24(SB)/8, $0x4e8000004e800000
GLOBL max8<>(SB), RODATA|NOPTR, $32

DATA absf8<>+0(SB)/8, $0x7fffffff7fffffff
DATA absf8<>+8(SB)/8, $0x7fffffff7fffffff
DATA absf8<>+16(SB)/8, $0x7fffffff7fffffff
DATA absf8<>+24(SB)/8, $0x7fffffff7fffffff
GLOBL absf8<>(SB), RODATA|NOPTR, $32

// LOAD4: four strided float64 loads from SI into Yd.
#define LOAD4(Yd, Xd, Xt) \
	VMOVSD      (SI), Xd             \
	VMOVHPD     (SI)(R13*1), Xd, Xd  \
	VMOVSD      (SI)(R13*2), Xt      \
	VMOVHPD     (SI)(R15*1), Xt, Xt  \
	VINSERTF128 $1, Xt, Yd, Yd

// STORE4: scatter the four float64 lanes of Ys to AX with stride R13.
#define STORE4(Ys, Xs, Xt) \
	VMOVSD       Xs, (AX)            \
	VMOVHPD      Xs, (AX)(R13*1)     \
	VEXTRACTF128 $1, Ys, Xt          \
	VMOVSD       Xt, (AX)(R13*2)     \
	VMOVHPD      Xt, (AX)(R15*1)

// LOAD8: eight strided float32 loads from SI into Yd (clobbers DI).
#define LOAD8(Yd, Xd, Xt) \
	VMOVD       (SI), Xd                 \
	VPINSRD     $1, (SI)(R13*1), Xd, Xd  \
	VPINSRD     $2, (SI)(R13*2), Xd, Xd  \
	VPINSRD     $3, (SI)(R15*1), Xd, Xd  \
	LEAQ        (SI)(R13*4), DI          \
	VMOVD       (DI), Xt                 \
	VPINSRD     $1, (DI)(R13*1), Xt, Xt  \
	VPINSRD     $2, (DI)(R13*2), Xt, Xt  \
	VPINSRD     $3, (DI)(R15*1), Xt, Xt  \
	VINSERTI128 $1, Xt, Yd, Yd

// STORE8F: scatter the eight float32 lanes of Ys to AX (clobbers DI).
#define STORE8F(Ys, Xs, Xt) \
	VEXTRACTPS   $0, Xs, (AX)           \
	VEXTRACTPS   $1, Xs, (AX)(R13*1)    \
	VEXTRACTPS   $2, Xs, (AX)(R13*2)    \
	VEXTRACTPS   $3, Xs, (AX)(R15*1)    \
	VEXTRACTF128 $1, Ys, Xt             \
	LEAQ         (AX)(R13*4), DI        \
	VEXTRACTPS   $0, Xt, (DI)           \
	VEXTRACTPS   $1, Xt, (DI)(R13*1)    \
	VEXTRACTPS   $2, Xt, (DI)(R13*2)    \
	VEXTRACTPS   $3, Xt, (DI)(R15*1)

// SSTRIDES: the stride registers of the strided kernels, for elements of
// 1<<sh bytes: R13/R15 the element stride and 3×, R9/R14 the index stride
// and 3×, BX/CX the off1 and off3 offsets, all in bytes.
#define SSTRIDES(sh) \
	MOVQ kernArgs_fstep(R8), R13  \
	SHLQ $sh, R13                 \
	LEAQ (R13)(R13*2), R15        \
	MOVQ kernArgs_ksStep(R8), R9  \
	SHLQ $2, R9                   \
	LEAQ (R9)(R9*2), R14          \
	MOVQ kernArgs_off1(R8), BX    \
	SHLQ $sh, BX                  \
	MOVQ kernArgs_off3(R8), CX    \
	SHLQ $sh, CX

// STOREK4: store the four int32 lanes of Xs R9 bytes apart from Rb.
#define STOREK4(Xs, Rb) \
	VMOVD   Xs, (Rb)            \
	VPEXTRD $1, Xs, (Rb)(R9*1)  \
	VPEXTRD $2, Xs, (Rb)(R9*2)  \
	VPEXTRD $3, Xs, (Rb)(R14*1)

// MODE: on to L for a linear run (interp.RunLinear), to C for a cubic
// one; a copy of the left neighbour falls through.
#define MODE(L, C) \
	MOVQ kernArgs_mode(R8), DX \
	CMPQ DX, $2                \
	JEQ  C                     \
	CMPQ DX, $1                \
	JEQ  L

// CUBIC64 combines the cubic operands x[-3s], x[-s], x[+s], x[+3s] in
// Y1..Y4 into the prediction in Y0: ((9·x[-s] − x[-3s]) + 9·x[+s] −
// x[+3s]) · 1/16, the generic Predict's order.
#define CUBIC64 \
	VMULPD nine4<>(SB), Y2, Y2 \
	VSUBPD Y1, Y2, Y2         \
	VMULPD nine4<>(SB), Y3, Y3 \
	VADDPD Y3, Y2, Y2         \
	VSUBPD Y4, Y2, Y2         \
	VMULPD sixt4<>(SB), Y2, Y0

// CUBIC32 is CUBIC64 on eight float32 lanes.
#define CUBIC32 \
	VMULPS nine8<>(SB), Y2, Y2 \
	VSUBPS Y1, Y2, Y2         \
	VMULPS nine8<>(SB), Y3, Y3 \
	VADDPS Y3, Y2, Y2         \
	VSUBPS Y4, Y2, Y2         \
	VMULPS sixt8<>(SB), Y2, Y0

// QPRED64_* leave the prediction in Y0 for the group at AX.
#define QPRED64_COPY \
	MOVQ AX, SI     \
	SUBQ BX, SI     \
	LOAD4(Y0, X0, X8)

#define QPRED64_LINEAR \
	MOVQ   AX, SI             \
	SUBQ   BX, SI             \
	LOAD4(Y1, X1, X8)         \
	MOVQ   AX, SI             \
	ADDQ   BX, SI             \
	LOAD4(Y2, X2, X8)         \
	VADDPD Y2, Y1, Y1         \
	VMULPD half4<>(SB), Y1, Y0

#define QPRED64_CUBIC \
	MOVQ   AX, SI             \
	SUBQ   CX, SI             \
	LOAD4(Y1, X1, X8)         \
	MOVQ   AX, SI             \
	SUBQ   BX, SI             \
	LOAD4(Y2, X2, X8)         \
	MOVQ   AX, SI             \
	ADDQ   BX, SI             \
	LOAD4(Y3, X3, X8)         \
	MOVQ   AX, SI             \
	ADDQ   CX, SI             \
	LOAD4(Y4, X4, X8)         \
	CUBIC64

// QCONST64 loads the registers QCORE64 reads: Y10 = step, Y11 = 1/step,
// Y12 = eb, Y13 = the window, Y14 = 0.
#define QCONST64 \
	VBROADCASTSD kernArgs_step(R8), Y10    \
	VBROADCASTSD kernArgs_invStep(R8), Y11 \
	VBROADCASTSD kernArgs_eb(R8), Y12      \
	VMOVUPD      max4<>(SB), Y13           \
	VXORPD       Y14, Y14, Y14

// QCORE64: quantize the group predicted in Y0 against the values in Y4;
// bail to D unless every lane is in the window and the bound, else leave
// the rounded indices in Y7 and the reconstructions in Y1.
#define QCORE64(D) \
	VSUBPD     Y0, Y4, Y5                  \
	VMULPD     Y11, Y5, Y5                 \
	VANDPD     absd4<>(SB), Y5, Y6         \
	VCMPPD     $0x12, Y13, Y6, Y6          \
	VROUNDPD   $0, Y5, Y7                  \
	VSUBPD     Y7, Y5, Y8                  \
	VCMPPD     $0x00, half4<>(SB), Y8, Y1  \
	VCMPPD     $0x1e, Y14, Y5, Y3          \
	VANDPD     Y3, Y1, Y1                  \
	VANDPD     one4<>(SB), Y1, Y1          \
	VADDPD     Y1, Y7, Y7                  \
	VCMPPD     $0x00, neghalf4<>(SB), Y8, Y1 \
	VCMPPD     $0x11, Y14, Y5, Y3          \
	VANDPD     Y3, Y1, Y1                  \
	VANDPD     one4<>(SB), Y1, Y1          \
	VSUBPD     Y1, Y7, Y7                  \
	VMULPD     Y10, Y7, Y1                 \
	VADDPD     Y1, Y0, Y1                  \
	VSUBPD     Y4, Y1, Y3                  \
	VANDPD     absd4<>(SB), Y3, Y3         \
	VCMPPD     $0x12, Y12, Y3, Y3          \
	VANDPD     Y3, Y6, Y6                  \
	VMOVMSKPD  Y6, DX                      \
	CMPL       DX, $15                     \
	JNE        D

// QPRED32_* leave the float32 prediction in Y0.
#define QPRED32_COPY \
	MOVQ AX, SI     \
	SUBQ BX, SI     \
	LOAD8(Y0, X0, X8)

#define QPRED32_LINEAR \
	MOVQ   AX, SI             \
	SUBQ   BX, SI             \
	LOAD8(Y1, X1, X8)         \
	MOVQ   AX, SI             \
	ADDQ   BX, SI             \
	LOAD8(Y2, X2, X8)         \
	VADDPS Y2, Y1, Y1         \
	VMULPS half8<>(SB), Y1, Y0

#define QPRED32_CUBIC \
	MOVQ   AX, SI             \
	SUBQ   CX, SI             \
	LOAD8(Y1, X1, X8)         \
	MOVQ   AX, SI             \
	SUBQ   BX, SI             \
	LOAD8(Y2, X2, X8)         \
	MOVQ   AX, SI             \
	ADDQ   BX, SI             \
	LOAD8(Y3, X3, X8)         \
	MOVQ   AX, SI             \
	ADDQ   CX, SI             \
	LOAD8(Y4, X4, X8)         \
	CUBIC32

// QCONST32 is QCONST64 for QCORE32: step and 1/step narrowed to float32,
// eb kept in float64.
#define QCONST32 \
	VMOVSD       kernArgs_step(R8), X0    \
	VCVTSD2SS    X0, X0, X0               \
	VBROADCASTSS X0, Y10                  \
	VMOVSD       kernArgs_invStep(R8), X0 \
	VCVTSD2SS    X0, X0, X0               \
	VBROADCASTSS X0, Y11                  \
	VBROADCASTSD kernArgs_eb(R8), Y12     \
	VMOVUPS      max8<>(SB), Y13          \
	VXORPS       Y14, Y14, Y14

// QCORE32: the float32 QCORE64 — float32 arithmetic for the residual,
// rounding and reconstruction, float64 for the error-bound check (exactly
// the generic kernel's widening). Clobbers SI, DI and DX.
#define QCORE32(D) \
	VSUBPS     Y0, Y4, Y5                  \
	VMULPS     Y11, Y5, Y5                 \
	VANDPS     absf8<>(SB), Y5, Y6         \
	VCMPPS     $0x12, Y13, Y6, Y6          \
	VROUNDPS   $0, Y5, Y7                  \
	VSUBPS     Y7, Y5, Y8                  \
	VCMPPS     $0x00, half8<>(SB), Y8, Y1  \
	VCMPPS     $0x1e, Y14, Y5, Y3          \
	VANDPS     Y3, Y1, Y1                  \
	VANDPS     one8<>(SB), Y1, Y1          \
	VADDPS     Y1, Y7, Y7                  \
	VCMPPS     $0x00, neghalf8<>(SB), Y8, Y1 \
	VCMPPS     $0x11, Y14, Y5, Y3          \
	VANDPS     Y3, Y1, Y1                  \
	VANDPS     one8<>(SB), Y1, Y1          \
	VSUBPS     Y1, Y7, Y7                  \
	VMULPS     Y10, Y7, Y1                 \
	VADDPS     Y1, Y0, Y1                  \
	VCVTPS2PD  X1, Y2                      \
	VEXTRACTF128 $1, Y1, X3                \
	VCVTPS2PD  X3, Y3                      \
	VCVTPS2PD  X4, Y9                      \
	VSUBPD     Y9, Y2, Y2                  \
	VEXTRACTF128 $1, Y4, X9                \
	VCVTPS2PD  X9, Y9                      \
	VSUBPD     Y9, Y3, Y3                  \
	VANDPD     absd4<>(SB), Y2, Y2         \
	VANDPD     absd4<>(SB), Y3, Y3         \
	VCMPPD     $0x12, Y12, Y2, Y2          \
	VCMPPD     $0x12, Y12, Y3, Y3          \
	VMOVMSKPS  Y6, DX                      \
	VMOVMSKPD  Y2, SI                      \
	VMOVMSKPD  Y3, DI                      \
	CMPL       DX, $0xff                   \
	JNE        D                           \
	CMPL       SI, $15                     \
	JNE        D                           \
	CMPL       DI, $15                     \
	JNE        D

// LOADK4: four int32 indices R9 bytes apart from R10 into Xd.
#define LOADK4(Xd) \
	VMOVD   (R10), Xd                \
	VPINSRD $1, (R10)(R9*1), Xd, Xd  \
	VPINSRD $2, (R10)(R9*2), Xd, Xd  \
	VPINSRD $3, (R10)(R14*1), Xd, Xd

// The strided apply kernels go a run at a time, each run's groups at 0,
// lanes, 2·lanes, … and, when the run is not a whole number of groups, at
// n − lanes, overlapping the one before. Beside the registers above:
//	R11 = the group's first point, counted in its run
//	R12 = a run's last group start (n − lanes)
// and the frame holds the current run's first target and index and the
// runs left.

// SROWS fills the frame and R11/R12 for elements of 1<<sh bytes and
// groups of n lanes, and the stride registers.
#define SROWS(sh, n) \
	MOVQ  kernArgs_data(R8), AX  \
	MOVQ  AX, rowd-8(SP)         \
	MOVQ  kernArgs_ks(R8), AX    \
	MOVQ  AX, rowk-16(SP)        \
	MOVQ  kernArgs_rows(R8), AX  \
	MOVQ  AX, rows-24(SP)        \
	SSTRIDES(sh)                 \
	MOVQ  kernArgs_n(R8), R12    \
	SUBQ  $n, R12                \
	XORQ  R11, R11

// SPOS: AX and R10 at group R11 of the current run, the run's last group
// overlapped.
#define SPOS \
	CMPQ    R11, R12           \
	CMOVQGT R12, R11           \
	MOVQ    R11, AX            \
	IMULQ   R13, AX            \
	ADDQ    rowd-8(SP), AX     \
	MOVQ    R11, R10           \
	IMULQ   R9, R10            \
	ADDQ    rowk-16(SP), R10

// SNEXT: after the group at R11, the next group of the run at G, or the
// first of the next run, or fall through after the block's last run, for
// elements of 1<<sh bytes and groups of n lanes.
#define SNEXT(G, sh, n) \
	CMPQ  R11, R12                   \
	LEAQ  n(R11), R11                \
	JNE   G                          \
	MOVQ  kernArgs_rowStep(R8), DX   \
	SHLQ  $sh, DX                    \
	ADDQ  DX, rowd-8(SP)             \
	MOVQ  kernArgs_ksRowStep(R8), DX \
	SHLQ  $2, DX                     \
	ADDQ  DX, rowk-16(SP)            \
	XORQ  R11, R11                   \
	DECQ  rows-24(SP)                \
	JNZ   G

// ATAIL64: dequantize-and-apply commit of a strided float64 group.
#define ATAIL64 \
	LOADK4(X1)                 \
	VCVTDQ2PD X1, Y1           \
	VMULPD    Y10, Y1, Y1      \
	VADDPD    Y1, Y0, Y1       \
	STORE4(Y1, X1, X2)

// SALOOP64: the groups of one mode at G, a run at a time, predicted by
// PRED.
#define SALOOP64(G, PRED) \
G:                         \
	SPOS                   \
	PRED                   \
	ATAIL64                \
	SNEXT(G, 3, 4)

// func applyRunF64(a *kernArgs)
TEXT ·applyRunF64(SB), NOSPLIT, $24-8
	MOVQ a+0(FP), R8
	SROWS(3, 4)
	VBROADCASTSD kernArgs_step(R8), Y10

	MODE(af64linear, af64cubic)

	SALOOP64(af64copy, QPRED64_COPY)
	JMP af64done
	SALOOP64(af64linear, QPRED64_LINEAR)
	JMP af64done
	SALOOP64(af64cubic, QPRED64_CUBIC)

af64done:
	VZEROUPPER
	RET

// ATAIL32: dequantize-and-apply commit of a strided float32 group
// (clobbers DI).
#define ATAIL32 \
	LOADK4(X1)                 \
	LEAQ      (R10)(R9*4), R10 \
	LOADK4(X2)                 \
	VINSERTI128 $1, X2, Y1, Y1 \
	VCVTDQ2PS Y1, Y1           \
	VMULPS    Y10, Y1, Y1      \
	VADDPS    Y1, Y0, Y1       \
	STORE8F(Y1, X1, X2)

// SALOOP32: the groups of one mode at G, a run at a time, predicted by
// PRED.
#define SALOOP32(G, PRED) \
G:                         \
	SPOS                   \
	PRED                   \
	ATAIL32                \
	SNEXT(G, 2, 8)

// func applyRunF32(a *kernArgs)
TEXT ·applyRunF32(SB), NOSPLIT, $24-8
	MOVQ a+0(FP), R8
	SROWS(2, 8)
	VMOVSD       kernArgs_step(R8), X0
	VCVTSD2SS    X0, X0, X0
	VBROADCASTSS X0, Y10

	MODE(af32linear, af32cubic)

	SALOOP32(af32copy, QPRED32_COPY)
	JMP af32done
	SALOOP32(af32linear, QPRED32_LINEAR)
	JMP af32done
	SALOOP32(af32cubic, QPRED32_CUBIC)

af32done:
	VZEROUPPER
	RET

// The strided quantize kernels go group by group across the rows, each
// row's groups at 0, lanes, 2·lanes, …; a row's last group shorter than a
// vector is returned as not committed, so the scatters never need a tail
// mask. Beside the registers above:
//	R11 = group g   R12 = row
// and the frame holds the row strides in bytes and the number of full
// groups in a row.

// SQFRAME fills the frame, R11/R12 and the stride registers for elements
// of 1<<sh bytes and groups of 1<<lg lanes.
#define SQFRAME(sh, lg) \
	MOVQ kernArgs_rowStep(R8), AX   \
	SHLQ $sh, AX                    \
	MOVQ AX, rsb-8(SP)              \
	MOVQ kernArgs_ksRowStep(R8), AX \
	SHLQ $2, AX                     \
	MOVQ AX, ksb-16(SP)             \
	MOVQ kernArgs_n(R8), AX         \
	SHRQ $lg, AX                    \
	MOVQ AX, nfull-24(SP)           \
	MOVQ kernArgs_at(R8), AX        \
	XORQ DX, DX                     \
	DIVQ kernArgs_rows(R8)          \
	MOVQ AX, R11                    \
	MOVQ DX, R12                    \
	SSTRIDES(sh)

// SQPOS: AX/R10 at group R11 of row R12, for groups of 1<<lg lanes.
#define SQPOS(lg) \
	MOVQ  R11, AX               \
	SHLQ  $lg, AX               \
	MOVQ  AX, R10               \
	IMULQ R13, AX               \
	IMULQ R9, R10               \
	MOVQ  R12, DX               \
	IMULQ rsb-8(SP), DX         \
	ADDQ  DX, AX                \
	ADDQ  kernArgs_data(R8), AX \
	MOVQ  R12, DX               \
	IMULQ ksb-16(SP), DX        \
	ADDQ  DX, R10               \
	ADDQ  kernArgs_ks(R8), R10

// SQLOOP: the full groups of one mode at G, the same group of every row at
// R, predicted by PRED and committed by GROUP, then on to T.
#define SQLOOP(G, R, T, PRED, GROUP, lg) \
G:                              \
	CMPQ R11, nfull-24(SP)      \
	JGE  T                      \
	SQPOS(lg)                   \
R:                              \
	PRED                        \
	GROUP                       \
	ADDQ rsb-8(SP), AX          \
	ADDQ ksb-16(SP), R10        \
	INCQ R12                    \
	CMPQ R12, kernArgs_rows(R8) \
	JLT  R                      \
	XORQ R12, R12               \
	INCQ R11                    \
	JMP  G

// SQ64: quantize and commit the float64 group at AX predicted in Y0.
#define SQ64 \
	MOVQ        AX, SI   \
	LOAD4(Y4, X4, X8)    \
	QCORE64(qs64bail)    \
	VCVTTPD2DQY Y7, X7   \
	STOREK4(X7, R10)     \
	STORE4(Y1, X1, X2)

// func quantizeRunF64(a *kernArgs) int64
TEXT ·quantizeRunF64(SB), NOSPLIT, $24-16
	MOVQ a+0(FP), R8
	SQFRAME(3, 2)
	QCONST64
	MODE(qs64linear, qs64cubic)

	SQLOOP(qs64copy, qs64copyr, qs64tail, QPRED64_COPY, SQ64, 2)
	SQLOOP(qs64linear, qs64linearr, qs64tail, QPRED64_LINEAR, SQ64, 2)
	SQLOOP(qs64cubic, qs64cubicr, qs64tail, QPRED64_CUBIC, SQ64, 2)

qs64tail:
	// A row's last group shorter than a vector goes to the scalar loop.
	MOVQ R11, DX
	SHLQ $2, DX
	CMPQ DX, kernArgs_n(R8)
	JLT  qs64bail
	MOVQ $-1, ret+8(FP)
	VZEROUPPER
	RET

qs64bail:
	MOVQ  R11, AX
	IMULQ kernArgs_rows(R8), AX
	ADDQ  R12, AX
	MOVQ  AX, ret+8(FP)
	VZEROUPPER
	RET

// SQ32: quantize and commit the float32 group at AX predicted in Y0.
#define SQ32 \
	MOVQ         AX, SI           \
	LOAD8(Y4, X4, X8)             \
	QCORE32(qs32bail)             \
	VCVTTPS2DQ   Y7, Y7           \
	STOREK4(X7, R10)              \
	VEXTRACTI128 $1, Y7, X7       \
	LEAQ         (R10)(R9*4), SI  \
	STOREK4(X7, SI)               \
	STORE8F(Y1, X1, X2)

// func quantizeRunF32(a *kernArgs) int64
TEXT ·quantizeRunF32(SB), NOSPLIT, $24-16
	MOVQ a+0(FP), R8
	SQFRAME(2, 3)
	QCONST32
	MODE(qs32linear, qs32cubic)

	SQLOOP(qs32copy, qs32copyr, qs32tail, QPRED32_COPY, SQ32, 3)
	SQLOOP(qs32linear, qs32linearr, qs32tail, QPRED32_LINEAR, SQ32, 3)
	SQLOOP(qs32cubic, qs32cubicr, qs32tail, QPRED32_CUBIC, SQ32, 3)

qs32tail:
	MOVQ R11, DX
	SHLQ $3, DX
	CMPQ DX, kernArgs_n(R8)
	JLT  qs32bail
	MOVQ $-1, ret+8(FP)
	VZEROUPPER
	RET

qs32bail:
	MOVQ  R11, AX
	IMULQ kernArgs_rows(R8), AX
	ADDQ  R12, AX
	MOVQ  AX, ret+8(FP)
	VZEROUPPER
	RET

// The pair kernels take blocks of level-1 rows: lanes 2 elements apart,
// indices contiguous. Registers as above, except:
//	R13 = -off1 bytes   R15 = -off3 bytes
// and, in the apply kernels:
//	R11 = the group's first target, counted in its row
//	R12 = a row's last group start (n − lanes)
//	DI  = rows left   R14/SI = row stride of data / of the indices, bytes
// A row's groups start at 0, lanes, 2·lanes, … and, when the row is not a
// whole number of groups, at n − lanes, overlapping the one before. Both
// kinds go group by group across the rows: the first group of every row,
// then the second, so a group never loads what the group before it in its
// row has just stored (on the innermost pass its operands sit between its
// targets, and a load that overlaps a recent masked store waits for the
// store to retire instead of being forwarded).

// Lane masks and lane indices of the pair stores: a group's results go to
// the even lanes of its first vector and the odd lanes of the vector that
// ends on its last target.
DATA pevn4<>+0(SB)/8, $0xffffffffffffffff
DATA pevn4<>+8(SB)/8, $0
DATA pevn4<>+16(SB)/8, $0xffffffffffffffff
DATA pevn4<>+24(SB)/8, $0
GLOBL pevn4<>(SB), RODATA|NOPTR, $32

DATA podd4<>+0(SB)/8, $0
DATA podd4<>+8(SB)/8, $0xffffffffffffffff
DATA podd4<>+16(SB)/8, $0
DATA podd4<>+24(SB)/8, $0xffffffffffffffff
GLOBL podd4<>(SB), RODATA|NOPTR, $32

DATA pevn8<>+0(SB)/8, $0x00000000ffffffff
DATA pevn8<>+8(SB)/8, $0x00000000ffffffff
DATA pevn8<>+16(SB)/8, $0x00000000ffffffff
DATA pevn8<>+24(SB)/8, $0x00000000ffffffff
GLOBL pevn8<>(SB), RODATA|NOPTR, $32

DATA podd8<>+0(SB)/8, $0xffffffff00000000
DATA podd8<>+8(SB)/8, $0xffffffff00000000
DATA podd8<>+16(SB)/8, $0xffffffff00000000
DATA podd8<>+24(SB)/8, $0xffffffff00000000
GLOBL podd8<>(SB), RODATA|NOPTR, $32

// pidxlo8<>/pidxhi8<>: dword lanes 0 0 1 1 2 2 3 3 and 4 4 5 5 6 6 7 7.
DATA pidxlo8<>+0(SB)/8, $0x0000000000000000
DATA pidxlo8<>+8(SB)/8, $0x0000000100000001
DATA pidxlo8<>+16(SB)/8, $0x0000000200000002
DATA pidxlo8<>+24(SB)/8, $0x0000000300000003
GLOBL pidxlo8<>(SB), RODATA|NOPTR, $32

DATA pidxhi8<>+0(SB)/8, $0x0000000400000004
DATA pidxhi8<>+8(SB)/8, $0x0000000500000005
DATA pidxhi8<>+16(SB)/8, $0x0000000600000006
DATA pidxhi8<>+24(SB)/8, $0x0000000700000007
GLOBL pidxhi8<>(SB), RODATA|NOPTR, $32

// PLOAD4: the four float64 at m, m+2, m+4, m+6 (elements) into Yd: the
// vectors m..m+3 and m+3..m+6, lanes 0 2 of the first and 1 3 of the
// second. Nothing past the last lane is read.
#define PLOAD4(Yd, m) \
	VMOVUPD m, Yd                   \
	VSHUFPD $0x0a, 24 m, Yd, Yd     \
	VPERMPD $0xd8, Yd, Yd

// PLOAD8: the eight float32 at m, m+2, …, m+14 into Yd, from m..m+7 and
// m+7..m+14.
#define PLOAD8(Yd, m) \
	VMOVUPS m, Yd                   \
	VSHUFPS $0xd8, 28 m, Yd, Yd     \
	VPERMPD $0xd8, Yd, Yd

// PPRED64_* / PPRED32_* leave the prediction of the pair group at AX in Y0.
#define PPRED64_COPY \
	PLOAD4(Y0, (AX)(R13*1))

#define PPRED64_LINEAR \
	PLOAD4(Y1, (AX)(R13*1))   \
	PLOAD4(Y2, (AX)(BX*1))    \
	VADDPD Y2, Y1, Y1         \
	VMULPD half4<>(SB), Y1, Y0

#define PPRED64_CUBIC \
	PLOAD4(Y1, (AX)(R15*1))   \
	PLOAD4(Y2, (AX)(R13*1))   \
	PLOAD4(Y3, (AX)(BX*1))    \
	PLOAD4(Y4, (AX)(CX*1))    \
	CUBIC64

#define PPRED32_COPY \
	PLOAD8(Y0, (AX)(R13*1))

#define PPRED32_LINEAR \
	PLOAD8(Y1, (AX)(R13*1))   \
	PLOAD8(Y2, (AX)(BX*1))    \
	VADDPS Y2, Y1, Y1         \
	VMULPS half8<>(SB), Y1, Y0

#define PPRED32_CUBIC \
	PLOAD8(Y1, (AX)(R15*1))   \
	PLOAD8(Y2, (AX)(R13*1))   \
	PLOAD8(Y3, (AX)(BX*1))    \
	PLOAD8(Y4, (AX)(CX*1))    \
	CUBIC32

// POFFS: BX/CX = ±off1/±off3 bytes for elements of 1<<sh bytes.
#define POFFS(sh) \
	MOVQ kernArgs_off1(R8), BX \
	SHLQ $sh, BX               \
	MOVQ BX, R13               \
	NEGQ R13                   \
	MOVQ kernArgs_off3(R8), CX \
	SHLQ $sh, CX               \
	MOVQ CX, R15               \
	NEGQ R15

// The pair quantize kernels start at group a.at (group-major: g·rows +
// row) and return the index of the first group that trips a guard, or −1.
// A row's last, overlapped group commits only the lanes the group before
// it did not (the tail masks): a committed point's work value is its
// reconstruction, not its input. Its other lanes are requantized from
// their reconstructions; should one of them trip a guard, the group bails
// and the scalar loop takes its new points, as for any other group.
// Registers:
//	AX/R10 = the group's data / indices   R9 = row   R11 = group g
//	R14 = rows   BX/CX/R13/R15 = operand offsets
// and the frame holds the row strides in bytes, the full and all groups
// of a row and the tail masks of the indices and of the two data stores.

// PQFRAME fills the frame and R9/R11/R14 for elements of 1<<sh bytes and
// groups of 1<<lg lanes.
#define PQFRAME(sh, lg) \
	MOVQ  kernArgs_rows(R8), R14     \
	MOVQ  kernArgs_rowStep(R8), AX   \
	SHLQ  $sh, AX                    \
	MOVQ  AX, rsb-8(SP)              \
	MOVQ  kernArgs_ksRowStep(R8), AX \
	SHLQ  $2, AX                     \
	MOVQ  AX, ksb-16(SP)             \
	MOVQ  kernArgs_n(R8), AX         \
	SHRQ  $lg, AX                    \
	MOVQ  AX, nfull-24(SP)           \
	MOVQ  kernArgs_n(R8), AX         \
	ADDQ  $((1<<lg)-1), AX           \
	SHRQ  $lg, AX                    \
	MOVQ  AX, ngrp-32(SP)            \
	MOVQ  kernArgs_at(R8), AX        \
	XORQ  DX, DX                     \
	DIVQ  R14                        \
	MOVQ  AX, R11                    \
	MOVQ  DX, R9

// PQPOS: AX/R10 at group R11 of row R9, for groups of 64 data bytes and
// 1<<lg lanes.
#define PQPOS(lg) \
	MOVQ  R9, AX                \
	IMULQ rsb-8(SP), AX         \
	ADDQ  kernArgs_data(R8), AX \
	MOVQ  R11, DX               \
	SHLQ  $6, DX                \
	ADDQ  DX, AX                \
	MOVQ  R9, R10               \
	IMULQ ksb-16(SP), R10       \
	ADDQ  kernArgs_ks(R8), R10  \
	MOVQ  R11, DX               \
	SHLQ  $(lg+2), DX           \
	ADDQ  DX, R10

// PQTAILPOS: AX/R10 at the overlapped last group, n − lanes, of row R9,
// or on to E when the row has no such group or it is done.
#define PQTAILPOS(sh, lg, E) \
	CMPQ  R11, ngrp-32(SP)      \
	JGE   E                     \
	MOVQ  R9, AX                \
	IMULQ rsb-8(SP), AX         \
	ADDQ  kernArgs_data(R8), AX \
	MOVQ  R9, R10               \
	IMULQ ksb-16(SP), R10       \
	ADDQ  kernArgs_ks(R8), R10  \
	MOVQ  kernArgs_n(R8), DX    \
	SUBQ  $(1<<lg), DX          \
	LEAQ  (R10)(DX*4), R10      \
	SHLQ  $(sh+1), DX           \
	ADDQ  DX, AX

// PQNEXT: on to the same group of the next row at Rw.
#define PQNEXT(Rw) \
	ADDQ  rsb-8(SP), AX        \
	ADDQ  ksb-16(SP), R10      \
	INCQ  R9                   \
	CMPQ  R9, R14              \
	JLT   Rw

// QCOMMITP64: commit the float64 pair group quantized in Y7/Y1.
#define QCOMMITP64 \
	VCVTTPD2DQY Y7, X7             \
	VMOVDQU    X7, (R10)           \
	VPERMPD    $0x50, Y1, Y2       \
	VMASKMOVPD Y2, Y9, (AX)        \
	VPERMPD    $0xfa, Y1, Y3       \
	VMASKMOVPD Y3, Y15, 24(AX)

// QCOMMITT64: commit only the tail lanes of an overlapped group.
#define QCOMMITT64 \
	VCVTTPD2DQY Y7, X7             \
	VMOVDQU    km-64(SP), X2       \
	VPMASKMOVD X7, X2, (R10)       \
	VPERMPD    $0x50, Y1, Y2       \
	VMOVDQU    dlo-96(SP), Y5      \
	VMASKMOVPD Y2, Y5, (AX)        \
	VPERMPD    $0xfa, Y1, Y3       \
	VMOVDQU    dhi-128(SP), Y5     \
	VMASKMOVPD Y3, Y5, 24(AX)

// QCOMMITP32: commit the float32 pair group quantized in Y7/Y1; the
// store's lane indices and odd mask go in registers QCORE32 left dead.
#define QCOMMITP32 \
	VCVTTPS2DQ Y7, Y7              \
	VMOVDQU    Y7, (R10)           \
	VMOVDQU    pidxlo8<>(SB), Y2   \
	VPERMPS    Y1, Y2, Y3          \
	VMASKMOVPS Y3, Y15, (AX)       \
	VMOVDQU    pidxhi8<>(SB), Y2   \
	VPERMPS    Y1, Y2, Y3          \
	VMOVDQU    podd8<>(SB), Y5     \
	VMASKMOVPS Y3, Y5, 28(AX)

#define QCOMMITT32 \
	VCVTTPS2DQ Y7, Y7              \
	VMOVDQU    km-64(SP), Y2       \
	VPMASKMOVD Y7, Y2, (R10)       \
	VMOVDQU    pidxlo8<>(SB), Y2   \
	VPERMPS    Y1, Y2, Y3          \
	VMOVDQU    dlo-96(SP), Y5      \
	VMASKMOVPS Y3, Y5, (AX)        \
	VMOVDQU    pidxhi8<>(SB), Y2   \
	VPERMPS    Y1, Y2, Y3          \
	VMOVDQU    dhi-128(SP), Y5     \
	VMASKMOVPS Y3, Y5, 28(AX)

// lanes8<>: dword lanes 0..7; lanes4<>: qword lanes 0..3.
DATA lanes8<>+0(SB)/8, $0x0000000100000000
DATA lanes8<>+8(SB)/8, $0x0000000300000002
DATA lanes8<>+16(SB)/8, $0x0000000500000004
DATA lanes8<>+24(SB)/8, $0x0000000700000006
GLOBL lanes8<>(SB), RODATA|NOPTR, $32

DATA lanes4<>+0(SB)/8, $0
DATA lanes4<>+8(SB)/8, $1
DATA lanes4<>+16(SB)/8, $2
DATA lanes4<>+24(SB)/8, $3
GLOBL lanes4<>(SB), RODATA|NOPTR, $32

// PQLOOP64: the groups of one mode — the full groups at G, the same
// group of every row at R, then the overlapped group of every row at T and
// TR — predicted by PRED.
#define PQLOOP64(G, R, T, TR, PRED) \
G:                              \
	CMPQ R11, nfull-24(SP)      \
	JGE  T                      \
	PQPOS(2)                    \
R:                              \
	PRED                        \
	PLOAD4(Y4, (AX))           \
	QCORE64(qp64bail)         \
	QCOMMITP64                 \
	PQNEXT(R)                   \
	XORQ R9, R9                 \
	INCQ R11                    \
	JMP  G                      \
T:                              \
	PQTAILPOS(3, 2, qp64done) \
TR:                             \
	PRED                        \
	PLOAD4(Y4, (AX))           \
	QCORE64(qp64bail)         \
	QCOMMITT64                 \
	PQNEXT(TR)

// func quantizePairsF64(a *kernArgs) int64
TEXT ·quantizePairsF64(SB), NOSPLIT, $128-16
	MOVQ a+0(FP), R8
	PQFRAME(3, 2)
	POFFS(3)
	// Tail masks: lanes k ≥ 4 − n%4 of the indices (dwords) and of the
	// two data stores (qwords, spread as the group's results are).
	MOVQ         kernArgs_n(R8), AX
	ANDQ         $3, AX
	NEGQ         AX
	ADDQ         $3, AX
	VMOVQ        AX, X0
	VPBROADCASTQ X0, Y0
	VMOVDQU      lanes4<>(SB), Y1
	VPCMPGTQ     Y0, Y1, Y1
	VPERMPD      $0x50, Y1, Y2
	VANDPD       pevn4<>(SB), Y2, Y2
	VMOVDQU      Y2, dlo-96(SP)
	VPERMPD      $0xfa, Y1, Y2
	VANDPD       podd4<>(SB), Y2, Y2
	VMOVDQU      Y2, dhi-128(SP)
	VPBROADCASTD X0, X0
	VMOVDQU      lanes8<>(SB), X1
	VPCMPGTD     X0, X1, X1
	VMOVDQU      X1, km-64(SP)

	QCONST64
	VMOVDQU      pevn4<>(SB), Y9
	VMOVDQU      podd4<>(SB), Y15

	MODE(qp64linear, qp64cubic)

	PQLOOP64(qp64copy, qp64copyr, qp64copyt, qp64copytr, PPRED64_COPY)
	JMP qp64done
	PQLOOP64(qp64linear, qp64linearr, qp64lineart, qp64lineartr, PPRED64_LINEAR)
	JMP qp64done
	PQLOOP64(qp64cubic, qp64cubicr, qp64cubict, qp64cubictr, PPRED64_CUBIC)

qp64done:
	MOVQ $-1, ret+8(FP)
	VZEROUPPER
	RET

qp64bail:
	MOVQ  R11, AX
	IMULQ R14, AX
	ADDQ  R9, AX
	MOVQ  AX, ret+8(FP)
	VZEROUPPER
	RET

// PQLOOP32: the groups of one mode — the full groups at G, the same
// group of every row at R, then the overlapped group of every row at T and
// TR — predicted by PRED.
#define PQLOOP32(G, R, T, TR, PRED) \
G:                              \
	CMPQ R11, nfull-24(SP)      \
	JGE  T                      \
	PQPOS(3)                    \
R:                              \
	PRED                        \
	PLOAD8(Y4, (AX))           \
	QCORE32(qp32bail)         \
	QCOMMITP32                 \
	PQNEXT(R)                   \
	XORQ R9, R9                 \
	INCQ R11                    \
	JMP  G                      \
T:                              \
	PQTAILPOS(2, 3, qp32done) \
TR:                             \
	PRED                        \
	PLOAD8(Y4, (AX))           \
	QCORE32(qp32bail)         \
	QCOMMITT32                 \
	PQNEXT(TR)

// func quantizePairsF32(a *kernArgs) int64
TEXT ·quantizePairsF32(SB), NOSPLIT, $128-16
	MOVQ a+0(FP), R8
	PQFRAME(2, 3)
	POFFS(2)
	// Tail masks: lanes k ≥ 8 − n%8 of the indices and of the two data
	// stores, spread as the group's results are.
	MOVQ         kernArgs_n(R8), AX
	ANDQ         $7, AX
	NEGQ         AX
	ADDQ         $7, AX
	VMOVQ        AX, X0
	VPBROADCASTD X0, Y0
	VMOVDQU      lanes8<>(SB), Y1
	VPCMPGTD     Y0, Y1, Y1
	VMOVDQU      Y1, km-64(SP)
	VMOVDQU      pidxlo8<>(SB), Y2
	VPERMPS      Y1, Y2, Y3
	VANDPS       pevn8<>(SB), Y3, Y3
	VMOVDQU      Y3, dlo-96(SP)
	VMOVDQU      pidxhi8<>(SB), Y2
	VPERMPS      Y1, Y2, Y3
	VANDPS       podd8<>(SB), Y3, Y3
	VMOVDQU      Y3, dhi-128(SP)

	QCONST32
	VMOVDQU      pevn8<>(SB), Y15

	MODE(qp32linear, qp32cubic)

	PQLOOP32(qp32copy, qp32copyr, qp32copyt, qp32copytr, PPRED32_COPY)
	JMP qp32done
	PQLOOP32(qp32linear, qp32linearr, qp32lineart, qp32lineartr, PPRED32_LINEAR)
	JMP qp32done
	PQLOOP32(qp32cubic, qp32cubicr, qp32cubict, qp32cubictr, PPRED32_CUBIC)

qp32done:
	MOVQ $-1, ret+8(FP)
	VZEROUPPER
	RET

qp32bail:
	MOVQ  R11, AX
	IMULQ R14, AX
	ADDQ  R9, AX
	MOVQ  AX, ret+8(FP)
	VZEROUPPER
	RET

// PROWS: the block registers of the apply pair kernels, for elements of
// 1<<sh bytes and groups of n lanes.
#define PROWS(sh, n) \
	MOVQ kernArgs_n(R8), R12        \
	SUBQ $n, R12                    \
	MOVQ kernArgs_rowStep(R8), R14  \
	SHLQ $sh, R14                   \
	MOVQ kernArgs_ksRowStep(R8), SI \
	SHLQ $2, SI                     \
	XORQ R11, R11

// PNEXT: after the group at R11 of a row, the same group of the next row
// at Rw, or the next group of the first row at G, or fall through after
// the block's last group.
#define PNEXT(Rw, G, n) \
	ADDQ R14, AX           \
	ADDQ SI, R10           \
	DECQ DI                \
	JNZ  Rw                \
	CMPQ R11, R12          \
	LEAQ n(R11), R11       \
	JNE  G

// PPOS64: AX and R10 at group R11 of the block's first row, the row's
// last group overlapped, DI its rows.
#define PPOS64 \
	CMPQ    R11, R12              \
	CMOVQGT R12, R11              \
	MOVQ    R11, AX               \
	SHLQ    $4, AX                \
	ADDQ    kernArgs_data(R8), AX \
	MOVQ    kernArgs_ks(R8), R10  \
	LEAQ    (R10)(R11*4), R10     \
	MOVQ    kernArgs_rows(R8), DI

// PATAIL64: dequantize-and-apply commit of a float64 pair group.
#define PATAIL64 \
	VCVTDQ2PD  (R10), Y1           \
	VMULPD     Y10, Y1, Y1         \
	VADDPD     Y1, Y0, Y1          \
	VPERMPD    $0x50, Y1, Y2       \
	VMASKMOVPD Y2, Y13, (AX)       \
	VPERMPD    $0xfa, Y1, Y3       \
	VMASKMOVPD Y3, Y14, 24(AX)

// PALOOP64: the groups of one mode at G, the same group of every row at
// R, predicted by PRED.
#define PALOOP64(G, R, PRED) \
G:                         \
	PPOS64                 \
R:                         \
	PRED                   \
	PATAIL64               \
	PNEXT(R, G, 4)

// func applyPairsF64(a *kernArgs)
TEXT ·applyPairsF64(SB), NOSPLIT, $0-8
	MOVQ a+0(FP), R8
	PROWS(3, 4)
	POFFS(3)
	VBROADCASTSD kernArgs_step(R8), Y10
	VMOVDQU      pevn4<>(SB), Y13
	VMOVDQU      podd4<>(SB), Y14

	MODE(ap64linear, ap64cubic)

	PALOOP64(ap64copy, ap64copyrow, PPRED64_COPY)
	JMP ap64done
	PALOOP64(ap64linear, ap64linearrow, PPRED64_LINEAR)
	JMP ap64done
	PALOOP64(ap64cubic, ap64cubicrow, PPRED64_CUBIC)

ap64done:
	VZEROUPPER
	RET

// PPOS32: PPOS64 for float32.
#define PPOS32 \
	CMPQ    R11, R12              \
	CMOVQGT R12, R11              \
	MOVQ    kernArgs_data(R8), AX \
	LEAQ    (AX)(R11*8), AX       \
	MOVQ    kernArgs_ks(R8), R10  \
	LEAQ    (R10)(R11*4), R10     \
	MOVQ    kernArgs_rows(R8), DI

// PATAIL32: dequantize-and-apply commit of a float32 pair group.
#define PATAIL32 \
	VMOVDQU    (R10), Y1           \
	VCVTDQ2PS  Y1, Y1              \
	VMULPS     Y10, Y1, Y1         \
	VADDPS     Y1, Y0, Y1          \
	VPERMPS    Y1, Y11, Y2         \
	VMASKMOVPS Y2, Y13, (AX)       \
	VPERMPS    Y1, Y12, Y3         \
	VMASKMOVPS Y3, Y14, 28(AX)

// PALOOP32: the groups of one mode at G, the same group of every row at
// R, predicted by PRED.
#define PALOOP32(G, R, PRED) \
G:                         \
	PPOS32                 \
R:                         \
	PRED                   \
	PATAIL32               \
	PNEXT(R, G, 8)

// func applyPairsF32(a *kernArgs)
TEXT ·applyPairsF32(SB), NOSPLIT, $0-8
	MOVQ a+0(FP), R8
	PROWS(2, 8)
	POFFS(2)
	VMOVSD       kernArgs_step(R8), X0
	VCVTSD2SS    X0, X0, X0
	VBROADCASTSS X0, Y10
	VMOVDQU      pidxlo8<>(SB), Y11
	VMOVDQU      pidxhi8<>(SB), Y12
	VMOVDQU      pevn8<>(SB), Y13
	VMOVDQU      podd8<>(SB), Y14

	MODE(ap32linear, ap32cubic)

	PALOOP32(ap32copy, ap32copyrow, PPRED32_COPY)
	JMP ap32done
	PALOOP32(ap32linear, ap32linearrow, PPRED32_LINEAR)
	JMP ap32done
	PALOOP32(ap32cubic, ap32cubicrow, PPRED32_CUBIC)

ap32done:
	VZEROUPPER
	RET
