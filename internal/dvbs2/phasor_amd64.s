#include "textflag.h"

// Each constant is stored twice, one copy per lane. The bit patterns are
// those of math.Sincos's constants: the three parts of π/4 (PI4A, PI4B,
// PI4C), 4/π as Go rounds it, and the _sin and _cos coefficients.
#define PAIR(name, bits) \
	DATA name<>+0(SB)/8, $bits; \
	DATA name<>+8(SB)/8, $bits; \
	GLOBL name<>(SB), RODATA|NOPTR, $16

PAIR(absMask, 0x7fffffffffffffff)
PAIR(signMask, 0x8000000000000000)
PAIR(reduceThreshold, 0x41c0000000000000) // 2^29
PAIR(fourOverPi, 0x3ff45f306dc9c883)
PAIR(pi4a, 0x3fe921fb40000000)
PAIR(pi4b, 0x3e64442d00000000)
PAIR(pi4c, 0x3ce8469898cc5170)
PAIR(one, 0x3ff0000000000000)
PAIR(half, 0x3fe0000000000000)
PAIR(sin0, 0x3de5d8fd1fd19ccd)
PAIR(sin1, 0xbe5ae5e5a9291f5d)
PAIR(sin2, 0x3ec71de3567d48a1)
PAIR(sin3, 0xbf2a01a019bfdf03)
PAIR(sin4, 0x3f8111111110f7d0)
PAIR(sin5, 0xbfc5555555555548)
PAIR(cos0, 0xbda8fa49a0861a9b)
PAIR(cos1, 0x3e21ee9d7b4e3f05)
PAIR(cos2, 0xbe927e4f7eac4bc6)
PAIR(cos3, 0x3efa01a019c844f5)
PAIR(cos4, 0xbf56c16c16c14f91)
PAIR(cos5, 0x3fa555555555554b)
PAIR(int32Ones, 0x0000000100000001)
PAIR(int32Even, 0xfffffffefffffffe)

// func sincosPairs(dst *complex128, args *float64, n int) int
//
// sincosPairs sets dst[i] = complex(cos, sin) of args[i], two arguments
// per pass, with math.Sincos's algorithm and rounding: the Cody–Waite
// reduction by π/4, the octant logic and the _sin/_cos polynomials, each
// operation the stdlib's in the stdlib's order, one lane per argument. It
// stops at the first pair that holds a NaN, an infinity or |x| ≥ 2^29
// (math.Sincos's Payne–Hanek range) and returns the number of arguments
// done, a multiple of 2; the caller finishes the rest and checks every
// index in bounds.
//
// Sincos(±0) = (±0, 1) needs no special case: the sign of the sine is the
// argument's sign bit, not x < 0, and the reduction of +0 gives (+0, 1).
TEXT ·sincosPairs(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ args+8(FP), SI
	MOVQ n+16(FP), CX
	XORQ AX, AX

pair:
	LEAQ 2(AX), BX
	CMPQ BX, CX
	JGT  done
	MOVUPD   (SI)(AX*8), X0
	MOVAPD   X0, X1
	ANDPD    absMask<>(SB), X1               // |x|
	MOVAPD   X1, X2
	CMPPD    reduceThreshold<>(SB), X2, $5   // not |x| < 2^29: NaN, ±Inf or too large
	MOVMSKPD X2, BX
	TESTQ    BX, BX
	JNE      done
	ANDPD    signMask<>(SB), X0              // X0: the sine's sign

	// j = uint64(|x|·(4/π)), made even (j&1 == 1: j++), and y = float64(j).
	MOVAPD    X1, X2
	MULPD     fourOverPi<>(SB), X2
	CVTTPD2PL X2, X3
	PADDL     int32Ones<>(SB), X3
	PAND      int32Even<>(SB), X3
	CVTPL2PD  X3, X2

	// z = ((|x| − y·PI4A) − y·PI4B) − y·PI4C
	MOVAPD X2, X4
	MULPD  pi4a<>(SB), X4
	SUBPD  X4, X1
	MOVAPD X2, X4
	MULPD  pi4b<>(SB), X4
	SUBPD  X4, X1
	MULPD  pi4c<>(SB), X2
	SUBPD  X2, X1                            // X1: z

	// Octant: j is even, so j&7 is 0, 2, 4 or 6. j&4 negates sine and
	// cosine; j&2 negates the cosine and swaps the two.
	PSHUFD $0x50, X3, X3                     // each lane holds its j in both halves
	MOVO   X3, X4
	PSLLQ  $61, X4
	PAND   signMask<>(SB), X4                // X4: j&4 as a sign bit
	PXOR   X4, X0                            // X0: the sine's final sign
	MOVO   X3, X5
	PSLLQ  $62, X5                           // X5: j&2 as a sign bit
	PXOR   X4, X5                            // X5: the cosine's final sign
	PSLLL  $30, X3
	PSRAL  $31, X3                           // X3: all ones where j&2

	MOVAPD X1, X2
	MULPD  X1, X2                            // X2: zz = z·z

	// cos = 1.0 − 0.5·zz + zz·zz·((((((_cos[0]·zz)+_cos[1])·zz+_cos[2])·zz+_cos[3])·zz+_cos[4])·zz+_cos[5])
	MOVAPD cos0<>(SB), X6
	MULPD  X2, X6
	ADDPD  cos1<>(SB), X6
	MULPD  X2, X6
	ADDPD  cos2<>(SB), X6
	MULPD  X2, X6
	ADDPD  cos3<>(SB), X6
	MULPD  X2, X6
	ADDPD  cos4<>(SB), X6
	MULPD  X2, X6
	ADDPD  cos5<>(SB), X6
	MOVAPD X2, X7
	MULPD  X2, X7
	MULPD  X7, X6
	MOVAPD half<>(SB), X7
	MULPD  X2, X7
	MOVAPD one<>(SB), X8
	SUBPD  X7, X8
	ADDPD  X6, X8                            // X8: cos

	// sin = z + z·zz·((((((_sin[0]·zz)+_sin[1])·zz+_sin[2])·zz+_sin[3])·zz+_sin[4])·zz+_sin[5])
	MOVAPD sin0<>(SB), X6
	MULPD  X2, X6
	ADDPD  sin1<>(SB), X6
	MULPD  X2, X6
	ADDPD  sin2<>(SB), X6
	MULPD  X2, X6
	ADDPD  sin3<>(SB), X6
	MULPD  X2, X6
	ADDPD  sin4<>(SB), X6
	MULPD  X2, X6
	ADDPD  sin5<>(SB), X6
	MOVAPD X1, X7
	MULPD  X2, X7
	MULPD  X7, X6
	ADDPD  X1, X6                            // X6: sin

	// Swap where j&2 (XOR with the masked difference), then apply the signs.
	MOVAPD X6, X7
	XORPD  X8, X7
	ANDPD  X3, X7
	XORPD  X7, X6
	XORPD  X7, X8
	XORPD  X0, X6
	XORPD  X5, X8

	// dst[i], dst[i+1] = complex(cos, sin) of lane 0 and lane 1.
	MOVAPD   X8, X7
	UNPCKLPD X6, X7
	UNPCKHPD X6, X8
	MOVQ     AX, BX
	SHLQ     $4, BX
	MOVUPD   X7, (DI)(BX*1)
	MOVUPD   X8, 16(DI)(BX*1)
	ADDQ     $2, AX
	JMP      pair

done:
	MOVQ AX, ret+24(FP)
	RET
