// Four-lane sigmoid kernel: dst[i] = 1/(1+exp((src[i]-b)*a)), the paper's
// Eq. 1 (a = -thetaM, b = 0) and Eq. 2 (a = -thetaZ, b = Ith).
//
// The exp is Go's amd64 math.Exp (archExp in $GOROOT/src/math/exp_amd64.s,
// Shibata's method) transcribed lane for lane: the same constants, the same
// operations in the same order, with VCVTPD2DQ rounding the exponent under
// MXCSR exactly as CVTSD2SL does. archExp has two branches, chosen at run
// time by math's useFMA; this kernel fuses exactly where the avxfma branch
// does, so it reproduces every bit math.Exp returns when that branch runs.
// The Go side checks that against math.Exp at init.
//
// Only archExp's main path is vectorized. A vector whose four arguments are
// not all in [-708, 709] (which excludes NaN, ±Inf, and archExp's overflow
// and denormal branches, since round(x*log2(e))+1023 stays in [2, 2046])
// stops the kernel; it returns the number of elements finished and the Go
// side computes that vector with the scalar expression.

#include "textflag.h"

// CONST4 declares a 32-byte read-only vector holding four copies of val.
#define CONST4(sym, val) \
	DATA sym<>+0(SB)/8, val; \
	DATA sym<>+8(SB)/8, val; \
	DATA sym<>+16(SB)/8, val; \
	DATA sym<>+24(SB)/8, val; \
	GLOBL sym<>(SB), RODATA|NOPTR, $32

CONST4(sgLo, $-708.0)
CONST4(sgHi, $709.0)
CONST4(sgLog2e, $1.4426950408889634073599246810018920)
CONST4(sgLn2U, $0.69314718055966295651160180568695068359375)
CONST4(sgLn2L, $0.28235290563031577122588448175013436025525412068e-12)
CONST4(sgSixteenth, $0.0625)
CONST4(sgC8, $2.4801587301587301587e-5)
CONST4(sgC7, $1.9841269841269841270e-4)
CONST4(sgC6, $1.3888888888888888889e-3)
CONST4(sgC5, $8.3333333333333333333e-3)
CONST4(sgC4, $4.1666666666666666667e-2)
CONST4(sgC3, $1.6666666666666666667e-1)
CONST4(sgHalf, $0.5)
CONST4(sgOne, $1.0)
CONST4(sgTwo, $2.0)
CONST4(sgBias, $0x3FF)

// func sigmoidAVXFMA(dst, src *float64, n int, a, b float64) int
//
// archExp's avxfma branch: the two-part ln 2 reduction and the Horner steps
// are single-rounding VFNMADD231PD/VFMADD213PD, as is the last squaring
// step with its +1. n must be a multiple of 4.
TEXT ·sigmoidAVXFMA(SB), NOSPLIT, $0-48
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	MOVQ         n+16(FP), CX
	VBROADCASTSD a+24(FP), Y14
	VBROADCASTSD b+32(FP), Y15
	SHLQ         $3, CX
	XORQ         DX, DX

loop:
	CMPQ DX, CX
	JGE  done

	// x = (v-b)*a, leaving unless every lane lies in [-708, 709] (ordered
	// compares, so NaN fails).
	VMOVUPD      (SI)(DX*1), Y0
	VSUBPD       Y15, Y0, Y0
	VMULPD       Y14, Y0, Y0
	VCMPPD       $0x1D, sgLo<>(SB), Y0, Y1
	VCMPPD       $0x12, sgHi<>(SB), Y0, Y2
	VANDPD       Y2, Y1, Y1
	VMOVMSKPD    Y1, AX
	CMPQ         AX, $15
	JNE          done

	// k = round(x*log2(e)), as int32 lanes in X4 and float64 lanes in Y1.
	VMULPD       sgLog2e<>(SB), Y0, Y1
	VCVTPD2DQY   Y1, X4
	VCVTDQ2PD    X4, Y1

	// x -= k*ln2 in two parts, then x /= 16.
	VFNMADD231PD sgLn2U<>(SB), Y1, Y0
	VFNMADD231PD sgLn2L<>(SB), Y1, Y0
	VMULPD       sgSixteenth<>(SB), Y0, Y0

	// p = 1 + x/2 + x^2/3! + ... + x^7/8!, then x = x*p = e^x - 1.
	VMOVUPD      sgC8<>(SB), Y2
	VFMADD213PD  sgC7<>(SB), Y0, Y2
	VFMADD213PD  sgC6<>(SB), Y0, Y2
	VFMADD213PD  sgC5<>(SB), Y0, Y2
	VFMADD213PD  sgC4<>(SB), Y0, Y2
	VFMADD213PD  sgC3<>(SB), Y0, Y2
	VFMADD213PD  sgHalf<>(SB), Y0, Y2
	VFMADD213PD  sgOne<>(SB), Y0, Y2
	VMULPD       Y2, Y0, Y0

	// Four squarings of e^x in the form x = (x+2)*x; the last one fuses
	// with the closing +1.
	VADDPD       sgTwo<>(SB), Y0, Y2
	VMULPD       Y2, Y0, Y0
	VADDPD       sgTwo<>(SB), Y0, Y2
	VMULPD       Y2, Y0, Y0
	VADDPD       sgTwo<>(SB), Y0, Y2
	VMULPD       Y2, Y0, Y0
	VADDPD       sgTwo<>(SB), Y0, Y2
	VFMADD213PD  sgOne<>(SB), Y2, Y0

	// Scale by 2^k (k + 1023 shifted into the exponent field, as archExp's
	// ldexp does for in-range k), then store 1/(1+exp).
	VPMOVSXDQ    X4, Y4
	VPADDQ       sgBias<>(SB), Y4, Y4
	VPSLLQ       $52, Y4, Y4
	VMULPD       Y4, Y0, Y0
	VADDPD       sgOne<>(SB), Y0, Y0
	VMOVUPD      sgOne<>(SB), Y1
	VDIVPD       Y0, Y1, Y0
	VMOVUPD      Y0, (DI)(DX*1)

	ADDQ         $32, DX
	JMP          loop

done:
	SHRQ       $3, DX
	MOVQ       DX, ret+40(FP)
	VZEROUPPER
	RET

// Per-pixel kernels of the ILT iteration. Each runs four float64 lanes per
// vector over n elements (n a multiple of 4, the Go side taking the tail)
// and evaluates its scalar loop's Go expression (pixel.go) with that
// expression's own operation tree: one VMULPD, VADDPD or VSUBPD per Go
// operation, no FMA, each operation's left operand as the instruction's
// first source. So every output bit equals the loop's wherever no single
// operation meets two NaNs of different payloads (which payload survives
// that is the compiler's operand order, not the expression's).

CONST4(pxTwo, $2.0)
CONST4(pxExpMask, $0x7FF0000000000000)

// boolTab<>+4m holds the four bool bytes of a VMOVMSKPD mask m: byte j is
// bit j of m.
DATA boolTab<>+0(SB)/4, $0x00000000
DATA boolTab<>+4(SB)/4, $0x00000001
DATA boolTab<>+8(SB)/4, $0x00000100
DATA boolTab<>+12(SB)/4, $0x00000101
DATA boolTab<>+16(SB)/4, $0x00010000
DATA boolTab<>+20(SB)/4, $0x00010001
DATA boolTab<>+24(SB)/4, $0x00010100
DATA boolTab<>+28(SB)/4, $0x00010101
DATA boolTab<>+32(SB)/4, $0x01000000
DATA boolTab<>+36(SB)/4, $0x01000001
DATA boolTab<>+40(SB)/4, $0x01000100
DATA boolTab<>+44(SB)/4, $0x01000101
DATA boolTab<>+48(SB)/4, $0x01010000
DATA boolTab<>+52(SB)/4, $0x01010001
DATA boolTab<>+56(SB)/4, $0x01010100
DATA boolTab<>+60(SB)/4, $0x01010101
GLOBL boolTab<>(SB), RODATA|NOPTR, $64

// func accumSquaresAVX(out, a *float64, n int, w float64)
//
// out[i] += w * a[i] * a[i], i.e. out + ((w*a)*a).
TEXT ·accumSquaresAVX(SB), NOSPLIT, $0-32
	MOVQ         out+0(FP), DI
	MOVQ         a+8(FP), SI
	MOVQ         n+16(FP), CX
	VBROADCASTSD w+24(FP), Y15
	SHLQ         $3, CX
	XORQ         DX, DX

asqloop:
	CMPQ    DX, CX
	JGE     asqdone
	VMOVUPD (SI)(DX*1), Y0
	VMULPD  Y0, Y15, Y1
	VMULPD  Y0, Y1, Y1
	VMOVUPD (DI)(DX*1), Y2
	VADDPD  Y1, Y2, Y2
	VMOVUPD Y2, (DI)(DX*1)
	ADDQ    $32, DX
	JMP     asqloop

asqdone:
	VZEROUPPER
	RET

// func weightFieldAVX(dst, grad, a *float64, n int, c float64)
//
// dst[i] = c * grad[i] * a[i], i.e. (c*grad)*a.
TEXT ·weightFieldAVX(SB), NOSPLIT, $0-40
	MOVQ         dst+0(FP), DI
	MOVQ         grad+8(FP), SI
	MOVQ         a+16(FP), BX
	MOVQ         n+24(FP), CX
	VBROADCASTSD c+32(FP), Y15
	SHLQ         $3, CX
	XORQ         DX, DX

wfloop:
	CMPQ    DX, CX
	JGE     wfdone
	VMOVUPD (SI)(DX*1), Y0
	VMULPD  Y0, Y15, Y0
	VMULPD  (BX)(DX*1), Y0, Y0
	VMOVUPD Y0, (DI)(DX*1)
	ADDQ    $32, DX
	JMP     wfloop

wfdone:
	VZEROUPPER
	RET

// func resistBackwardAVX(gradI, gradT, t *float64, n int, tz float64)
//
// gradI[i] = gradT[i] * tz * t[i] * (1 - t[i]), i.e. ((gradT*tz)*t)*(1-t).
TEXT ·resistBackwardAVX(SB), NOSPLIT, $0-40
	MOVQ         gradI+0(FP), DI
	MOVQ         gradT+8(FP), SI
	MOVQ         t+16(FP), BX
	MOVQ         n+24(FP), CX
	VBROADCASTSD tz+32(FP), Y15
	VMOVUPD      sgOne<>(SB), Y14
	SHLQ         $3, CX
	XORQ         DX, DX

rbloop:
	CMPQ    DX, CX
	JGE     rbdone
	VMOVUPD (SI)(DX*1), Y0
	VMULPD  Y15, Y0, Y0
	VMOVUPD (BX)(DX*1), Y1
	VMULPD  Y1, Y0, Y0
	VSUBPD  Y1, Y14, Y2
	VMULPD  Y2, Y0, Y0
	VMOVUPD Y0, (DI)(DX*1)
	ADDQ    $32, DX
	JMP     rbloop

rbdone:
	VZEROUPPER
	RET

// func composeDoubleAVX(out, t1, t2 *float64, sat *bool, n int)
//
// v = t1[i] + t2[i]; out[i] = 1 where v > 1 (an ordered compare, so a NaN
// v is kept), else v. A non-nil sat gets the four v > 1 bools of each
// vector as one 32-bit store.
TEXT ·composeDoubleAVX(SB), NOSPLIT, $0-40
	MOVQ    out+0(FP), DI
	MOVQ    t1+8(FP), SI
	MOVQ    t2+16(FP), BX
	MOVQ    sat+24(FP), R8
	MOVQ    n+32(FP), CX
	VMOVUPD sgOne<>(SB), Y15
	LEAQ    boolTab<>(SB), R9
	XORQ    DX, DX

cdloop:
	CMPQ      DX, CX
	JGE       cddone
	VMOVUPD   (SI)(DX*8), Y0
	VADDPD    (BX)(DX*8), Y0, Y0
	VCMPPD    $0x1E, Y15, Y0, Y1
	VBLENDVPD Y1, Y15, Y0, Y0
	VMOVUPD   Y0, (DI)(DX*8)
	TESTQ     R8, R8
	JZ        cdnext
	VMOVMSKPD Y1, AX
	MOVL      (R9)(AX*4), AX
	MOVL      AX, (R8)(DX*1)

cdnext:
	ADDQ $4, DX
	JMP  cdloop

cddone:
	VZEROUPPER
	RET

// func composeBackwardAVX(gradT, t, target *float64, sat *bool, n int)
//
// gradT[i] = 2 * (t[i] - target[i]), then +0 where sat[i]: the bool bytes
// widen to quadwords, and the lanes equal to zero keep the value.
TEXT ·composeBackwardAVX(SB), NOSPLIT, $0-40
	MOVQ    gradT+0(FP), DI
	MOVQ    t+8(FP), SI
	MOVQ    target+16(FP), BX
	MOVQ    sat+24(FP), R8
	MOVQ    n+32(FP), CX
	VMOVUPD pxTwo<>(SB), Y15
	VPXOR   Y14, Y14, Y14
	XORQ    DX, DX

cbloop:
	CMPQ      DX, CX
	JGE       cbdone
	VMOVUPD   (SI)(DX*8), Y0
	VSUBPD    (BX)(DX*8), Y0, Y0
	VMULPD    Y0, Y15, Y0
	VPMOVZXBQ (R8)(DX*1), Y1
	VPCMPEQQ  Y14, Y1, Y1
	VANDPD    Y1, Y0, Y0
	VMOVUPD   Y0, (DI)(DX*8)
	ADDQ      $4, DX
	JMP       cbloop

cbdone:
	VZEROUPPER
	RET

// func finiteAVX(x *float64, n int) bool
//
// Reports whether no x[i] has an all-ones exponent (±Inf or NaN): each
// vector's exponent fields are compared with the all-ones pattern, and the
// matches are ORed across the slice.
TEXT ·finiteAVX(SB), NOSPLIT, $0-17
	MOVQ    x+0(FP), SI
	MOVQ    n+8(FP), CX
	VMOVUPD pxExpMask<>(SB), Y15
	VPXOR   Y1, Y1, Y1
	SHLQ    $3, CX
	XORQ    DX, DX

fnloop:
	CMPQ     DX, CX
	JGE      fndone
	VANDPD   (SI)(DX*1), Y15, Y0
	VPCMPEQQ Y15, Y0, Y0
	VPOR     Y0, Y1, Y1
	ADDQ     $32, DX
	JMP      fnloop

fndone:
	VPTEST     Y1, Y1
	SETEQ      ret+16(FP)
	VZEROUPPER
	RET

// func maskStepAVX(p, m, grad *float64, n int, step, tm float64)
//
// p[i] -= step * grad[i] * tm * m[i] * (1 - m[i]), i.e.
// p - ((((step*grad)*tm)*m)*(1-m)).
TEXT ·maskStepAVX(SB), NOSPLIT, $0-48
	MOVQ         p+0(FP), DI
	MOVQ         m+8(FP), SI
	MOVQ         grad+16(FP), BX
	MOVQ         n+24(FP), CX
	VBROADCASTSD step+32(FP), Y15
	VBROADCASTSD tm+40(FP), Y14
	VMOVUPD      sgOne<>(SB), Y13
	SHLQ         $3, CX
	XORQ         DX, DX

msloop:
	CMPQ    DX, CX
	JGE     msdone
	VMOVUPD (BX)(DX*1), Y0
	VMULPD  Y0, Y15, Y0
	VMULPD  Y14, Y0, Y0
	VMOVUPD (SI)(DX*1), Y1
	VMULPD  Y1, Y0, Y0
	VSUBPD  Y1, Y13, Y2
	VMULPD  Y2, Y0, Y0
	VMOVUPD (DI)(DX*1), Y3
	VSUBPD  Y0, Y3, Y3
	VMOVUPD Y3, (DI)(DX*1)
	ADDQ    $32, DX
	JMP     msloop

msdone:
	VZEROUPPER
	RET
