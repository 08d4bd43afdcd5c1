//go:build amd64 && !purego

#include "textflag.h"

// The branchless input scan behind CopyRange. Four registers hold the lane
// minima and four the lane maxima; VMINPS v, lo keeps v only when v < lo
// (so a NaN v, or a zero tying a zero, leaves lo alone), exactly the
// sequential loop's compare. Each iteration loads four registers of src,
// stores them to dst when dst is non-nil, and folds them in.

// FOLD folds the four registers of src just loaded (Y8..Y11) into the
// lane minima (Y0..Y3) and maxima (Y4..Y7).
#define FOLD(MIN, MAX) \
	MIN Y0, Y8, Y0   \
	MIN Y1, Y9, Y1   \
	MIN Y2, Y10, Y2  \
	MIN Y3, Y11, Y3  \
	MAX Y4, Y8, Y4   \
	MAX Y5, Y9, Y5   \
	MAX Y6, Y10, Y6  \
	MAX Y7, Y11, Y7

#define LOADS(MOV) \
	MOV (SI), Y8     \
	MOV 32(SI), Y9   \
	MOV 64(SI), Y10  \
	MOV 96(SI), Y11

#define STORES(MOV) \
	MOV Y8, (DI)     \
	MOV Y9, 32(DI)   \
	MOV Y10, 64(DI)  \
	MOV Y11, 96(DI)

#define PROLOGUE(MOV) \
	MOVQ dst+0(FP), DI  \
	MOVQ src+8(FP), SI  \
	MOVQ n+16(FP), R11  \
	MOVQ lo+24(FP), R8  \
	MOVQ hi+32(FP), R9  \
	MOV (R8), Y0        \
	MOV 32(R8), Y1      \
	MOV 64(R8), Y2      \
	MOV 96(R8), Y3      \
	MOV (R9), Y4        \
	MOV 32(R9), Y5      \
	MOV 64(R9), Y6      \
	MOV 96(R9), Y7

#define EPILOGUE(MOV) \
	MOV Y0, (R8)    \
	MOV Y1, 32(R8)  \
	MOV Y2, 64(R8)  \
	MOV Y3, 96(R8)  \
	MOV Y4, (R9)    \
	MOV Y5, 32(R9)  \
	MOV Y6, 64(R9)  \
	MOV Y7, 96(R9)  \
	VZEROUPPER

// func scanF32(dst, src *float32, n int, lo, hi *[32]float32)
TEXT ·scanF32(SB), NOSPLIT, $0-40
	PROLOGUE(VMOVUPS)
	SHRQ  $5, R11
	JZ    f32done
	TESTQ DI, DI
	JZ    f32scan

f32copy:
	LOADS(VMOVUPS)
	STORES(VMOVUPS)
	FOLD(VMINPS, VMAXPS)
	ADDQ $128, SI
	ADDQ $128, DI
	DECQ R11
	JNZ  f32copy
	JMP  f32done

f32scan:
	LOADS(VMOVUPS)
	FOLD(VMINPS, VMAXPS)
	ADDQ $128, SI
	DECQ R11
	JNZ  f32scan

f32done:
	EPILOGUE(VMOVUPS)
	RET

// func scanF64(dst, src *float64, n int, lo, hi *[32]float64)
TEXT ·scanF64(SB), NOSPLIT, $0-40
	PROLOGUE(VMOVUPD)
	SHRQ  $4, R11
	JZ    f64done
	TESTQ DI, DI
	JZ    f64scan

f64copy:
	LOADS(VMOVUPD)
	STORES(VMOVUPD)
	FOLD(VMINPD, VMAXPD)
	ADDQ $128, SI
	ADDQ $128, DI
	DECQ R11
	JNZ  f64copy
	JMP  f64done

f64scan:
	LOADS(VMOVUPD)
	FOLD(VMINPD, VMAXPD)
	ADDQ $128, SI
	DECQ R11
	JNZ  f64scan

f64done:
	EPILOGUE(VMOVUPD)
	RET
