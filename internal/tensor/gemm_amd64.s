// AVX and AVX-512 kernels for the blocked GEMM engine. Vector lanes always
// map to DIFFERENT output elements (adjacent output columns), never to the
// k-dimension, and products use separate VMULPD/VADDPD (no FMA): each output
// element therefore accumulates its k-products one at a time, in ascending-k
// order, with exactly the scalar mul-then-add rounding — which is what keeps
// the SIMD engine bit-identical to the naive reference kernels.

#include "textflag.h"

// func cpuidAVX() bool
//
// Reports AVX support: CPUID.1:ECX has OSXSAVE (bit 27) and AVX (bit 28),
// and XCR0 confirms the OS saves XMM+YMM state.
TEXT ·cpuidAVX(SB), NOSPLIT, $0-1
	MOVQ $1, AX
	XORQ CX, CX
	CPUID
	MOVQ CX, R8
	SHRQ $27, R8
	ANDQ $1, R8        // OSXSAVE
	MOVQ CX, R9
	SHRQ $28, R9
	ANDQ $1, R9        // AVX
	ANDQ R9, R8
	JZ   noavx
	XORL CX, CX
	XGETBV
	ANDQ $6, AX        // XCR0 bits 1..2: XMM and YMM state enabled
	CMPQ AX, $6
	JNE  noavx
	MOVB $1, ret+0(FP)
	RET
noavx:
	MOVB $0, ret+0(FP)
	RET

// tailMask holds three set lanes then three clear ones: the 32 bytes at
// offset 24-8*c are the VMASKMOVPD mask selecting the first c lanes.
DATA tailMask<>+0(SB)/8, $0xffffffffffffffff
DATA tailMask<>+8(SB)/8, $0xffffffffffffffff
DATA tailMask<>+16(SB)/8, $0xffffffffffffffff
DATA tailMask<>+24(SB)/8, $0x0000000000000000
DATA tailMask<>+32(SB)/8, $0x0000000000000000
DATA tailMask<>+40(SB)/8, $0x0000000000000000
GLOBL tailMask<>(SB), RODATA|NOPTR, $48

// MULADD accumulates acc += a*b through the scratch register t, with the
// product as the add's first source: the operand order of the scalar
// c += a*b, so even NaN payloads propagate as in the Go kernel.
#define MULADD(b, a, t, acc) \
	VMULPD b, a, t; \
	VADDPD acc, t, acc

// K4STEP runs one k step of a 4x4 tile: Y8 holds four B values, and
// accumulator Yr gains apack[kk*4+r] * Y8. It then advances the A cursor
// (AX) and the B cursor (DI) to the next k step.
#define K4STEP \
	VBROADCASTSD (AX), Y10; \
	MULADD(Y8, Y10, Y14, Y0); \
	VBROADCASTSD 8(AX), Y11; \
	MULADD(Y8, Y11, Y15, Y1); \
	VBROADCASTSD 16(AX), Y12; \
	MULADD(Y8, Y12, Y14, Y2); \
	VBROADCASTSD 24(AX), Y13; \
	MULADD(Y8, Y13, Y15, Y3); \
	ADDQ $32, AX; \
	ADDQ R12, DI

// func kern4x8AVX(apack, bpack, c0, c1, c2, c3 *float64, kc, nc int)
//
// The packed-panel micro-kernel over a whole 4-row strip: for ascending kk
// in [0, kc), c_r[j] += apack[kk*4+r] * bpack[kk*nc+j] for every j < nc.
// The C tile stays in registers across the k loop. Each 8-column block
// loads its 4x8 tile into Y0-Y7 once, runs all kc steps on it (2 B loads,
// 4 broadcasts, 8 multiplies, 8 adds per step) and stores it once. One
// 4-column block (Y0-Y3) follows, and the last 1..3 columns run the same
// 4-column step under a VMASKMOVPD lane mask on the C and B accesses:
// masked lanes read 0 and are never written. kc must be positive.
TEXT ·kern4x8AVX(SB), NOSPLIT, $0-64
	MOVQ bpack+8(FP), BX
	MOVQ c0+16(FP), R8
	MOVQ c1+24(FP), R9
	MOVQ c2+32(FP), R10
	MOVQ c3+40(FP), R11
	MOVQ kc+48(FP), CX
	MOVQ nc+56(FP), R12
	SHLQ $3, R12       // bpack row stride in bytes
	MOVQ R12, R13
	ANDQ $-64, R13     // bytes covered by whole 8-column blocks
	XORQ SI, SI        // byte offset of the current column block

blk8:
	CMPQ SI, R13
	JGE  blk4
	VMOVUPD (R8)(SI*1), Y0
	VMOVUPD 32(R8)(SI*1), Y1
	VMOVUPD (R9)(SI*1), Y2
	VMOVUPD 32(R9)(SI*1), Y3
	VMOVUPD (R10)(SI*1), Y4
	VMOVUPD 32(R10)(SI*1), Y5
	VMOVUPD (R11)(SI*1), Y6
	VMOVUPD 32(R11)(SI*1), Y7
	MOVQ apack+0(FP), AX
	LEAQ (BX)(SI*1), DI
	MOVQ CX, DX
k8:
	VMOVUPD (DI), Y8
	VMOVUPD 32(DI), Y9
	VBROADCASTSD (AX), Y10
	MULADD(Y8, Y10, Y14, Y0)
	MULADD(Y9, Y10, Y15, Y1)
	VBROADCASTSD 8(AX), Y11
	MULADD(Y8, Y11, Y14, Y2)
	MULADD(Y9, Y11, Y15, Y3)
	VBROADCASTSD 16(AX), Y12
	MULADD(Y8, Y12, Y14, Y4)
	MULADD(Y9, Y12, Y15, Y5)
	VBROADCASTSD 24(AX), Y13
	MULADD(Y8, Y13, Y14, Y6)
	MULADD(Y9, Y13, Y15, Y7)
	ADDQ $32, AX
	ADDQ R12, DI
	DECQ DX
	JNZ  k8
	VMOVUPD Y0, (R8)(SI*1)
	VMOVUPD Y1, 32(R8)(SI*1)
	VMOVUPD Y2, (R9)(SI*1)
	VMOVUPD Y3, 32(R9)(SI*1)
	VMOVUPD Y4, (R10)(SI*1)
	VMOVUPD Y5, 32(R10)(SI*1)
	VMOVUPD Y6, (R11)(SI*1)
	VMOVUPD Y7, 32(R11)(SI*1)
	ADDQ $64, SI
	JMP  blk8

blk4:
	MOVQ R12, R13
	SUBQ SI, R13       // bytes left: 0..56
	CMPQ R13, $32
	JLT  tail
	VMOVUPD (R8)(SI*1), Y0
	VMOVUPD (R9)(SI*1), Y1
	VMOVUPD (R10)(SI*1), Y2
	VMOVUPD (R11)(SI*1), Y3
	MOVQ apack+0(FP), AX
	LEAQ (BX)(SI*1), DI
	MOVQ CX, DX
k4:
	VMOVUPD (DI), Y8
	K4STEP
	DECQ DX
	JNZ  k4
	VMOVUPD Y0, (R8)(SI*1)
	VMOVUPD Y1, (R9)(SI*1)
	VMOVUPD Y2, (R10)(SI*1)
	VMOVUPD Y3, (R11)(SI*1)
	ADDQ $32, SI
	SUBQ $32, R13

tail:
	TESTQ R13, R13
	JZ    done
	LEAQ tailMask<>(SB), DI
	MOVQ $24, DX
	SUBQ R13, DX
	VMOVUPD (DI)(DX*1), Y9 // lane mask: the first R13/8 lanes
	VMASKMOVPD (R8)(SI*1), Y9, Y0
	VMASKMOVPD (R9)(SI*1), Y9, Y1
	VMASKMOVPD (R10)(SI*1), Y9, Y2
	VMASKMOVPD (R11)(SI*1), Y9, Y3
	MOVQ apack+0(FP), AX
	LEAQ (BX)(SI*1), DI
	MOVQ CX, DX
km:
	VMASKMOVPD (DI), Y9, Y8
	K4STEP
	DECQ DX
	JNZ  km
	VMASKMOVPD Y0, Y9, (R8)(SI*1)
	VMASKMOVPD Y1, Y9, (R9)(SI*1)
	VMASKMOVPD Y2, Y9, (R10)(SI*1)
	VMASKMOVPD Y3, Y9, (R11)(SI*1)

done:
	VZEROUPPER
	RET

// func kern4x16AVX512(apack, bpack, c0, c1, c2, c3 *float64, kc, nc int)
//
// kern4x8AVX's contract on the AVX-512 register file: for ascending kk in
// [0, kc), c_r[j] += apack[kk*4+r] * bpack[kk*nc+j] for every j < nc, with
// the same MULADD per element. Each 16-column block loads its 4x16 C tile
// into Z0-Z7 once, runs all kc steps on it (2 B loads, 4 broadcasts, 8
// multiplies, 8 adds per step) and stores it once. The last 1..15 columns
// run as one or two blocks of at most 8 columns (Z0, Z2, Z4, Z6) under the
// opmask K1 on the C and B accesses: masked lanes load as 0 and are never
// written. The k-loop heads sit on 64-byte boundaries, so where the linker
// places the function cannot move them. kc must be positive.
TEXT ·kern4x16AVX512(SB), NOSPLIT, $0-64
	MOVQ bpack+8(FP), BX
	MOVQ c0+16(FP), R8
	MOVQ c1+24(FP), R9
	MOVQ c2+32(FP), R10
	MOVQ c3+40(FP), R11
	MOVQ nc+56(FP), R12
	SHLQ $3, R12       // bpack row stride in bytes
	MOVQ R12, R13
	ANDQ $-128, R13    // bytes covered by whole 16-column blocks
	XORQ SI, SI        // byte offset of the current column block

blk16:
	CMPQ SI, R13
	JGE  tail
	VMOVUPD (R8)(SI*1), Z0
	VMOVUPD 64(R8)(SI*1), Z1
	VMOVUPD (R9)(SI*1), Z2
	VMOVUPD 64(R9)(SI*1), Z3
	VMOVUPD (R10)(SI*1), Z4
	VMOVUPD 64(R10)(SI*1), Z5
	VMOVUPD (R11)(SI*1), Z6
	VMOVUPD 64(R11)(SI*1), Z7
	MOVQ apack+0(FP), AX
	LEAQ (BX)(SI*1), DI
	MOVQ kc+48(FP), DX
	PCALIGN $64
k16:
	VMOVUPD (DI), Z8
	VMOVUPD 64(DI), Z9
	VBROADCASTSD (AX), Z10
	MULADD(Z8, Z10, Z14, Z0)
	MULADD(Z9, Z10, Z15, Z1)
	VBROADCASTSD 8(AX), Z11
	MULADD(Z8, Z11, Z14, Z2)
	MULADD(Z9, Z11, Z15, Z3)
	VBROADCASTSD 16(AX), Z12
	MULADD(Z8, Z12, Z14, Z4)
	MULADD(Z9, Z12, Z15, Z5)
	VBROADCASTSD 24(AX), Z13
	MULADD(Z8, Z13, Z14, Z6)
	MULADD(Z9, Z13, Z15, Z7)
	ADDQ $32, AX
	ADDQ R12, DI
	DECQ DX
	JNZ  k16
	VMOVUPD Z0, (R8)(SI*1)
	VMOVUPD Z1, 64(R8)(SI*1)
	VMOVUPD Z2, (R9)(SI*1)
	VMOVUPD Z3, 64(R9)(SI*1)
	VMOVUPD Z4, (R10)(SI*1)
	VMOVUPD Z5, 64(R10)(SI*1)
	VMOVUPD Z6, (R11)(SI*1)
	VMOVUPD Z7, 64(R11)(SI*1)
	ADDQ $128, SI
	JMP  blk16

tail:
	MOVQ R12, CX
	SUBQ SI, CX        // bytes left: 0..120
	JZ   done
	SHRQ $3, CX        // columns left: 1..15
	CMPQ CX, $8
	JLE  masked
	MOVQ $8, CX
masked:
	MOVL $1, DX
	SHLL CX, DX
	DECL DX
	KMOVW DX, K1       // lane mask: the first CX lanes
	VMOVUPD.Z (R8)(SI*1), K1, Z0
	VMOVUPD.Z (R9)(SI*1), K1, Z2
	VMOVUPD.Z (R10)(SI*1), K1, Z4
	VMOVUPD.Z (R11)(SI*1), K1, Z6
	MOVQ apack+0(FP), AX
	LEAQ (BX)(SI*1), DI
	MOVQ kc+48(FP), DX
	PCALIGN $64
km:
	VMOVUPD.Z (DI), K1, Z8
	VBROADCASTSD (AX), Z10
	MULADD(Z8, Z10, Z14, Z0)
	VBROADCASTSD 8(AX), Z11
	MULADD(Z8, Z11, Z15, Z2)
	VBROADCASTSD 16(AX), Z12
	MULADD(Z8, Z12, Z14, Z4)
	VBROADCASTSD 24(AX), Z13
	MULADD(Z8, Z13, Z15, Z6)
	ADDQ $32, AX
	ADDQ R12, DI
	DECQ DX
	JNZ  km
	VMOVUPD Z0, K1, (R8)(SI*1)
	VMOVUPD Z2, K1, (R9)(SI*1)
	VMOVUPD Z4, K1, (R10)(SI*1)
	VMOVUPD Z6, K1, (R11)(SI*1)
	LEAQ (SI)(CX*8), SI
	JMP  tail

done:
	VZEROUPPER
	RET

// func dot4x4AVX(a0, a1, a2, a3, bpack *float64, k int, o0, o1, o2, o3 *float64)
//
// The A x B^T register tile: four rows of A against four interleaved rows
// of B (bpack[kk*4+s] = B[j0+s][kk]). Accumulator lane (r, s) sums
// a_r[kk] * b_{j0+s}[kk] for ascending kk, entirely in registers, then the
// four-wide rows are stored to o_r.
TEXT ·dot4x4AVX(SB), NOSPLIT, $0-80
	MOVQ a0+0(FP), AX
	MOVQ a1+8(FP), BX
	MOVQ a2+16(FP), R8
	MOVQ a3+24(FP), R9
	MOVQ bpack+32(FP), R10
	MOVQ k+40(FP), CX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	XORQ SI, SI
kloop:
	CMPQ SI, CX
	JGE  store
	VMOVUPD (R10), Y4
	ADDQ $32, R10
	VBROADCASTSD (AX)(SI*8), Y5
	VMULPD Y4, Y5, Y5
	VADDPD Y5, Y0, Y0
	VBROADCASTSD (BX)(SI*8), Y6
	VMULPD Y4, Y6, Y6
	VADDPD Y6, Y1, Y1
	VBROADCASTSD (R8)(SI*8), Y7
	VMULPD Y4, Y7, Y7
	VADDPD Y7, Y2, Y2
	VBROADCASTSD (R9)(SI*8), Y8
	VMULPD Y4, Y8, Y8
	VADDPD Y8, Y3, Y3
	INCQ SI
	JMP  kloop
store:
	MOVQ o0+48(FP), DX
	VMOVUPD Y0, (DX)
	MOVQ o1+56(FP), DX
	VMOVUPD Y1, (DX)
	MOVQ o2+64(FP), DX
	VMOVUPD Y2, (DX)
	MOVQ o3+72(FP), DX
	VMOVUPD Y3, (DX)
	VZEROUPPER
	RET
