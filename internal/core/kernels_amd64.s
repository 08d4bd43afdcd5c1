//go:build amd64 && !purego

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
// Every kernel walks the quantization indices ksStep apart (a column of a
// pass walks its indices a row of targets apart): the apply kernels read
// them with strided inserts, as LOAD4/LOAD8 read data, the quantize
// kernels write them with strided extracts. All commit whole groups only.
// The apply wrapper covers a run's tail with one more group that ends at
// the run's last point and overlaps the groups before it, which is exact
// because a target reads only points its pass never writes; the quantize
// wrapper leaves the tail to the scalar loop, since a quantized point's
// work value is already its reconstruction.
//
// Register conventions shared by all kernels:
//	R8  = *kernArgs     AX  = &data[f] (advances)
//	BX  = off1 bytes    CX  = off3 bytes
//	R13 = elem stride   R15 = 3*stride
//	R10 = ks cursor     R11 = groups remaining    R12 = groups total
//	R9/R14 = ks stride / 3*ks stride bytes
//	SI/DI/DX            scratch (quantize kernels)

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

// KSTRIDE: the index stride of every kernel, R9 = ksStep bytes, R14 = 3×.
#define KSTRIDE \
	MOVQ 88(R8), R9          \
	SHLQ $2, R9              \
	LEAQ (R9)(R9*2), R14

// STOREK4: store the four int32 lanes of Xs R9 bytes apart from R10, and
// advance R10 past them.
#define STOREK4(Xs) \
	VMOVD   Xs, (R10)                \
	VPEXTRD $1, Xs, (R10)(R9*1)      \
	VPEXTRD $2, Xs, (R10)(R9*2)      \
	VPEXTRD $3, Xs, (R10)(R14*1)     \
	LEAQ    (R10)(R9*4), R10

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
	VMULPD nine4<>(SB), Y2, Y2 \
	VSUBPD Y1, Y2, Y2         \
	VMULPD nine4<>(SB), Y3, Y3 \
	VADDPD Y3, Y2, Y2         \
	VSUBPD Y4, Y2, Y2         \
	VMULPD sixt4<>(SB), Y2, Y0

// QTAIL64: quantize the group predicted in Y0; commit or bail to D.
#define QTAIL64(L, D) \
	MOVQ       AX, SI                      \
	LOAD4(Y4, X4, X8)                      \
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
	JNE        D                           \
	VCVTTPD2DQY Y7, X7                      \
	STOREK4(X7)                            \
	STORE4(Y1, X1, X2)                     \
	LEAQ       (AX)(R13*4), AX             \
	DECQ       R11                         \
	JNZ        L                           \
	JMP        D

// func quantizeRunF64(a *kernArgs) int64
TEXT ·quantizeRunF64(SB), NOSPLIT, $0-16
	MOVQ  a+0(FP), R8
	MOVQ  0(R8), R9
	MOVQ  16(R8), AX
	LEAQ  (R9)(AX*8), AX
	MOVQ  24(R8), R13
	SHLQ  $3, R13
	LEAQ  (R13)(R13*2), R15
	MOVQ  8(R8), R10
	KSTRIDE
	MOVQ  32(R8), R11
	SHRQ  $2, R11
	MOVQ  R11, R12
	TESTQ R11, R11
	JZ    qf64done
	MOVQ  40(R8), BX
	SHLQ  $3, BX
	MOVQ  48(R8), CX
	SHLQ  $3, CX

	VBROADCASTSD 64(R8), Y10
	VBROADCASTSD 72(R8), Y11
	VBROADCASTSD 80(R8), Y12
	VMOVUPD      max4<>(SB), Y13
	VXORPD       Y14, Y14, Y14

	MOVQ 56(R8), DX
	CMPQ DX, $2
	JEQ  qf64cubic
	CMPQ DX, $1
	JEQ  qf64linear

qf64copy:
	QPRED64_COPY
	QTAIL64(qf64copy, qf64done)

qf64linear:
	QPRED64_LINEAR
	QTAIL64(qf64linear, qf64done)

qf64cubic:
	QPRED64_CUBIC
	QTAIL64(qf64cubic, qf64done)

qf64done:
	SUBQ R11, R12
	SHLQ $2, R12
	MOVQ R12, ret+8(FP)
	VZEROUPPER
	RET

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
	VMULPS nine8<>(SB), Y2, Y2 \
	VSUBPS Y1, Y2, Y2         \
	VMULPS nine8<>(SB), Y3, Y3 \
	VADDPS Y3, Y2, Y2         \
	VSUBPS Y4, Y2, Y2         \
	VMULPS sixt8<>(SB), Y2, Y0

// QTAIL32: float32 arithmetic for residual/round/reconstruct, float64 for
// the error-bound check (exactly the generic kernel's widening).
#define QTAIL32(L, D) \
	MOVQ       AX, SI                      \
	LOAD8(Y4, X4, X8)                      \
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
	JNE        D                           \
	VCVTTPS2DQ Y7, Y7                      \
	STOREK4(X7)                            \
	VEXTRACTI128 $1, Y7, X7                \
	STOREK4(X7)                            \
	STORE8F(Y1, X1, X2)                    \
	LEAQ       (AX)(R13*8), AX             \
	DECQ       R11                         \
	JNZ        L                           \
	JMP        D

// func quantizeRunF32(a *kernArgs) int64
TEXT ·quantizeRunF32(SB), NOSPLIT, $0-16
	MOVQ  a+0(FP), R8
	MOVQ  0(R8), R9
	MOVQ  16(R8), AX
	LEAQ  (R9)(AX*4), AX
	MOVQ  24(R8), R13
	SHLQ  $2, R13
	LEAQ  (R13)(R13*2), R15
	MOVQ  8(R8), R10
	KSTRIDE
	MOVQ  32(R8), R11
	SHRQ  $3, R11
	MOVQ  R11, R12
	TESTQ R11, R11
	JZ    qf32done
	MOVQ  40(R8), BX
	SHLQ  $2, BX
	MOVQ  48(R8), CX
	SHLQ  $2, CX

	VMOVSD       64(R8), X0
	VCVTSD2SS    X0, X0, X0
	VBROADCASTSS X0, Y10
	VMOVSD       72(R8), X0
	VCVTSD2SS    X0, X0, X0
	VBROADCASTSS X0, Y11
	VBROADCASTSD 80(R8), Y12
	VMOVUPS      max8<>(SB), Y13
	VXORPS       Y14, Y14, Y14

	MOVQ 56(R8), DX
	CMPQ DX, $2
	JEQ  qf32cubic
	CMPQ DX, $1
	JEQ  qf32linear

qf32copy:
	QPRED32_COPY
	QTAIL32(qf32copy, qf32done)

qf32linear:
	QPRED32_LINEAR
	QTAIL32(qf32linear, qf32done)

qf32cubic:
	QPRED32_CUBIC
	QTAIL32(qf32cubic, qf32done)

qf32done:
	SUBQ R11, R12
	SHLQ $3, R12
	MOVQ R12, ret+8(FP)
	VZEROUPPER
	RET

// LOADK4: four int32 indices R9 bytes apart from R10 into Xd.
#define LOADK4(Xd) \
	VMOVD   (R10), Xd                \
	VPINSRD $1, (R10)(R9*1), Xd, Xd  \
	VPINSRD $2, (R10)(R9*2), Xd, Xd  \
	VPINSRD $3, (R10)(R14*1), Xd, Xd

// ATAIL64: dequantize-and-apply commit (no guards).
#define ATAIL64(L) \
	LOADK4(X1)                 \
	VCVTDQ2PD X1, Y1           \
	VMULPD    Y10, Y1, Y1      \
	VADDPD    Y1, Y0, Y1       \
	STORE4(Y1, X1, X2)         \
	LEAQ      (AX)(R13*4), AX  \
	LEAQ      (R10)(R9*4), R10 \
	DECQ      R11              \
	JNZ       L

// func applyRunF64(a *kernArgs) int64
TEXT ·applyRunF64(SB), NOSPLIT, $0-16
	MOVQ  a+0(FP), R8
	MOVQ  0(R8), R9
	MOVQ  16(R8), AX
	LEAQ  (R9)(AX*8), AX
	MOVQ  24(R8), R13
	SHLQ  $3, R13
	LEAQ  (R13)(R13*2), R15
	MOVQ  8(R8), R10
	KSTRIDE
	MOVQ  32(R8), R11
	SHRQ  $2, R11
	MOVQ  R11, R12
	TESTQ R11, R11
	JZ    af64done
	MOVQ  40(R8), BX
	SHLQ  $3, BX
	MOVQ  48(R8), CX
	SHLQ  $3, CX
	VBROADCASTSD 64(R8), Y10

	MOVQ 56(R8), DX
	CMPQ DX, $2
	JEQ  af64cubic
	CMPQ DX, $1
	JEQ  af64linear

af64copy:
	QPRED64_COPY
	ATAIL64(af64copy)
	JMP af64done

af64linear:
	QPRED64_LINEAR
	ATAIL64(af64linear)
	JMP af64done

af64cubic:
	QPRED64_CUBIC
	ATAIL64(af64cubic)

af64done:
	SHLQ $2, R12
	MOVQ R12, ret+8(FP)
	VZEROUPPER
	RET

// ATAIL32: eight-lane apply commit (clobbers DI).
#define ATAIL32(L) \
	LOADK4(X1)                 \
	LEAQ      (R10)(R9*4), R10 \
	LOADK4(X2)                 \
	VINSERTI128 $1, X2, Y1, Y1 \
	VCVTDQ2PS Y1, Y1           \
	VMULPS    Y10, Y1, Y1      \
	VADDPS    Y1, Y0, Y1       \
	STORE8F(Y1, X1, X2)        \
	LEAQ      (AX)(R13*8), AX  \
	LEAQ      (R10)(R9*4), R10 \
	DECQ      R11              \
	JNZ       L

// func applyRunF32(a *kernArgs) int64
TEXT ·applyRunF32(SB), NOSPLIT, $0-16
	MOVQ  a+0(FP), R8
	MOVQ  0(R8), R9
	MOVQ  16(R8), AX
	LEAQ  (R9)(AX*4), AX
	MOVQ  24(R8), R13
	SHLQ  $2, R13
	LEAQ  (R13)(R13*2), R15
	MOVQ  8(R8), R10
	KSTRIDE
	MOVQ  32(R8), R11
	SHRQ  $3, R11
	MOVQ  R11, R12
	TESTQ R11, R11
	JZ    af32done
	MOVQ  40(R8), BX
	SHLQ  $2, BX
	MOVQ  48(R8), CX
	SHLQ  $2, CX
	VMOVSD       64(R8), X0
	VCVTSD2SS    X0, X0, X0
	VBROADCASTSS X0, Y10

	MOVQ 56(R8), DX
	CMPQ DX, $2
	JEQ  af32cubic
	CMPQ DX, $1
	JEQ  af32linear

af32copy:
	QPRED32_COPY
	ATAIL32(af32copy)
	JMP af32done

af32linear:
	QPRED32_LINEAR
	ATAIL32(af32linear)
	JMP af32done

af32cubic:
	QPRED32_CUBIC
	ATAIL32(af32cubic)

af32done:
	SHLQ $3, R12
	MOVQ R12, ret+8(FP)
	VZEROUPPER
	RET
