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
