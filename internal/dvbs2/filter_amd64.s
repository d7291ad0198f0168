#include "textflag.h"

// func filterSSE2(dst, x *complex128, rt *float64, ntaps, nout, step int)
//
// The SSE2 form of filterGo: output m (0 ≤ m < nout) is written to
// dst[m·step] and is Σ_k rt[k]·x[m+k], summed from k = ntaps−1 down to 0.
// One XMM register holds one output's (re, im) accumulator; per tap, the
// duplicated tap multiplies the sample (MULPD, one rounding per lane) and
// the product is added (ADDPD), so each lane performs filterGo's
// float64(t*x) and += in filterGo's order, and gets its bits. Four outputs
// share a pass over the taps, as in filterGo; a one-output loop finishes
// the last nout mod 4. The caller checks every index in bounds and that
// ntaps ≥ 1.
//
// Registers: DI output pointer, SI window of the current output, DX taps,
// CX 2·ntaps, BX outputs left, R8 step in bytes, R9 2k (k the tap index:
// the tap is at DX+4·R9, the sample at SI+8·R9).
TEXT ·filterSSE2(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ rt+16(FP), DX
	MOVQ ntaps+24(FP), CX
	MOVQ nout+32(FP), BX
	MOVQ step+40(FP), R8
	SHLQ $1, CX
	SHLQ $4, R8

quad:
	CMPQ BX, $4
	JLT  one
	XORPD X0, X0
	XORPD X1, X1
	XORPD X2, X2
	XORPD X3, X3
	MOVQ  CX, R9

quadtap:
	SUBQ     $2, R9             // SSE instructions leave the flags: JNE below reads this
	MOVSD    (DX)(R9*4), X4
	UNPCKLPD X4, X4             // (t, t)
	MOVUPD   (SI)(R9*8), X5
	MOVUPD   16(SI)(R9*8), X6
	MOVUPD   32(SI)(R9*8), X7
	MOVUPD   48(SI)(R9*8), X8
	MULPD    X4, X5
	MULPD    X4, X6
	MULPD    X4, X7
	MULPD    X4, X8
	ADDPD    X5, X0
	ADDPD    X6, X1
	ADDPD    X7, X2
	ADDPD    X8, X3
	JNE      quadtap
	MOVUPD X0, (DI)
	MOVUPD X1, (DI)(R8*1)
	LEAQ   (DI)(R8*2), DI
	MOVUPD X2, (DI)
	MOVUPD X3, (DI)(R8*1)
	LEAQ   (DI)(R8*2), DI
	ADDQ   $64, SI
	SUBQ   $4, BX
	JMP    quad

one:
	TESTQ BX, BX
	JEQ   done
	XORPD X0, X0
	MOVQ  CX, R9

onetap:
	SUBQ     $2, R9
	MOVSD    (DX)(R9*4), X4
	UNPCKLPD X4, X4
	MOVUPD   (SI)(R9*8), X5
	MULPD    X4, X5
	ADDPD    X5, X0
	JNE      onetap
	MOVUPD X0, (DI)
	ADDQ   R8, DI
	ADDQ   $16, SI
	DECQ   BX
	JMP    one

done:
	RET
