// AVX kernels for the spectral engine, built on the same determinism
// contract as the GEMM micro-kernels in internal/tensor: products use
// separate VMULPD/VADDPD/VSUBPD (no FMA — rounding must match the scalar
// reference exactly), vector lanes always map to DIFFERENT complex bins
// (two adjacent complex128 per YMM register, never a split accumulation),
// and every arithmetic expression is evaluated with exactly the operand
// structure the Go compiler gives the scalar loops. Addition operands may
// be commuted (IEEE addition is commutative on non-NaN values), so the
// kernels are bit-identical to the pure-Go reference on finite inputs.
//
// The complex multiply x*w = (xr*wr - xi*wi) + i(xr*wi + xi*wr) is the
// shared six-instruction sequence:
//
//	wr   = VPERMILPD $0x0 (w)          [wr, wr] per lane
//	wi   = VPERMILPD $0xF (w)          [wi, wi] per lane
//	t1   = x * wr                      [xr*wr, xi*wr]
//	xs   = VPERMILPD $0x5 (x)          [xi, xr]
//	t2   = xs * wi                     [xi*wi, xr*wi]
//	prod = VADDSUBPD t1, t2            [xr*wr - xi*wi, xi*wr + xr*wi]
//
// VADDSUBPD subtracts in the real slot and adds in the imaginary slot,
// which is exactly the scalar formula (the imaginary sum is commuted).

#include "textflag.h"

// Sign-bit mask over the imaginary slot of each complex128: XOR conjugates.
DATA conjMask<>+0(SB)/8, $0x0000000000000000
DATA conjMask<>+8(SB)/8, $0x8000000000000000
DATA conjMask<>+16(SB)/8, $0x0000000000000000
DATA conjMask<>+24(SB)/8, $0x8000000000000000
GLOBL conjMask<>(SB), RODATA|NOPTR, $32

// Sign-bit mask over the real slot: XOR computes i*x from the swapped pair.
DATA negReMask<>+0(SB)/8, $0x8000000000000000
DATA negReMask<>+8(SB)/8, $0x0000000000000000
DATA negReMask<>+16(SB)/8, $0x8000000000000000
DATA negReMask<>+24(SB)/8, $0x0000000000000000
GLOBL negReMask<>(SB), RODATA|NOPTR, $32

DATA halfConst<>+0(SB)/8, $0.5
GLOBL halfConst<>(SB), RODATA|NOPTR, $8

DATA negHalfConst<>+0(SB)/8, $-0.5
GLOBL negHalfConst<>(SB), RODATA|NOPTR, $8

// func cpuFeatureProbe() (avx, avx2, fma, avx512f bool)
//
// Reports AVX/AVX2/FMA/AVX-512F support: CPUID.1:ECX must show OSXSAVE
// (bit 27) and AVX (bit 28), XCR0 must confirm the OS saves XMM+YMM state,
// AVX2 is CPUID.(7,0):EBX bit 5 — the same probe shape as tensor.cpuidAVX —
// and FMA is CPUID.1:ECX bit 12, usable only with that same YMM state.
// AVX-512F is CPUID.(7,0):EBX bit 16, usable only when XCR0 also has the
// opmask, ZMM_Hi256 and Hi16_ZMM bits (5-7) set: XCR0 & 0xE6 == 0xE6.
TEXT ·cpuFeatureProbe(SB), NOSPLIT, $0-4
	MOVQ $1, AX
	XORQ CX, CX
	CPUID
	MOVQ CX, R10
	SHRQ $12, R10
	ANDQ $1, R10       // FMA
	MOVQ CX, R8
	SHRQ $27, R8
	ANDQ $1, R8        // OSXSAVE
	MOVQ CX, R9
	SHRQ $28, R9
	ANDQ $1, R9        // AVX
	ANDQ R9, R8
	JZ   none
	XORL CX, CX
	XGETBV
	MOVQ AX, R11       // XCR0
	ANDQ $6, AX        // XCR0 bits 1..2: XMM and YMM state enabled
	CMPQ AX, $6
	JNE  none
	MOVB $1, avx+0(FP)
	MOVB R10, fma+2(FP)
	MOVQ $7, AX
	XORQ CX, CX
	CPUID
	MOVQ BX, R8
	SHRQ $5, R8
	ANDQ $1, R8        // AVX2
	MOVB R8, avx2+1(FP)
	ANDQ $0xE6, R11
	CMPQ R11, $0xE6
	JNE  nozmm
	SHRQ $16, BX
	ANDQ $1, BX        // AVX512F
	MOVB BX, avx512f+3(FP)
	RET
nozmm:
	MOVB $0, avx512f+3(FP)
	RET
none:
	MOVB $0, avx+0(FP)
	MOVB $0, avx2+1(FP)
	MOVB $0, fma+2(FP)
	MOVB $0, avx512f+3(FP)
	RET

// func fftStageAVX(x *complex128, n, half int, tw *complex128)
//
// One whole radix-2 butterfly stage over the n-element array at x: for each
// size-2*half block, a = x[k], b = x[k+half]*tw[k-start], x[k] = a+b,
// x[k+half] = a-b, two butterflies per iteration. tw is the stage's
// contiguous twiddle run from the vector layout in tables.go (the exact
// Sincos-sampled values the scalar path reads with stride n/size). half
// must be >= 2, so every block is a whole number of 32-byte vectors and no
// tail exists inside the stage. The row core (transformInto) runs its odd
// last stage here.
TEXT ·fftStageAVX(SB), NOSPLIT, $0-32
	MOVQ x+0(FP), DI
	MOVQ n+8(FP), AX
	MOVQ half+16(FP), DX
	MOVQ tw+24(FP), R9
	SHLQ $4, AX              // n in bytes
	SHLQ $4, DX              // half in bytes
	LEAQ (DI)(AX*1), R8      // end of the array
outer:
	CMPQ DI, R8
	JGE  done
	LEAQ (DI)(DX*1), BX      // b pointer: x + half
	XORQ SI, SI
inner:
	CMPQ SI, DX
	JGE  innerdone
	VMOVUPD   (BX)(SI*1), Y1   // b = [b0, b1]
	VMOVUPD   (R9)(SI*1), Y2   // w = [w0, w1]
	VPERMILPD $0x0, Y2, Y10    // [w0r, w0r, w1r, w1r]
	VPERMILPD $0xF, Y2, Y11    // [w0i, w0i, w1i, w1i]
	VMULPD    Y1, Y10, Y12     // b * wr
	VPERMILPD $0x5, Y1, Y13    // [b0i, b0r, b1i, b1r]
	VMULPD    Y13, Y11, Y13    // bswap * wi
	VADDSUBPD Y13, Y12, Y14    // t = b * w
	VMOVUPD   (DI)(SI*1), Y0   // a
	VADDPD    Y14, Y0, Y15
	VMOVUPD   Y15, (DI)(SI*1)  // x[k] = a + t
	VSUBPD    Y14, Y0, Y15
	VMOVUPD   Y15, (BX)(SI*1)  // x[k+half] = a - t
	ADDQ      $32, SI
	JMP       inner
innerdone:
	LEAQ (BX)(DX*1), DI      // next block: skip the half just written
	JMP  outer
done:
	VZEROUPPER
	RET

// func fftFirstSweepAVX(dst, src *complex128, rev *int32, n int, tw *complex128)
//
// The bit-reversal permutation and the first two radix-2 stages of the
// n-point transform (n >= 4) in one sweep, from the natural-order src into
// dst (the two must not overlap). Output block 4b is read straight from
// its bit-reversed sources: with r = rev[4b] (always < n/4),
//
//	x0 = src[r], x1 = src[r+n/2], x2 = src[r+n/4], x3 = src[r+3n/4]
//
// are what the permutation would have placed at 4b..4b+3. Stage half = 1
// butterflies (x0,x1) and (x2,x3), both with tw[0], held as the lanes of
// [x0,x2] and [x1,x3]; two VPERM2F128 regroup the results as [y0,y1] and
// [y2,y3]; stage half = 2 butterflies (y0,y2) with tw[1] and (y1,y3) with
// tw[2]; and the four outputs are stored contiguously. tw points at the
// stage-major run (tables.go), where stage 1's one twiddle is followed by
// stage 2's two. The stage-1 twiddle tab[0] = (1, ∓0) goes through the full
// multiply, as the scalar butterfly's b * tab[0] does, and every element
// sees fftStageAVX's VPERMILPD/VMULPD/VADDSUBPD/VADDPD/VSUBPD sequence.
TEXT ·fftFirstSweepAVX(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ rev+16(FP), R8
	MOVQ n+24(FP), CX
	MOVQ tw+32(FP), R9
	VBROADCASTF128 (R9), Y6        // [tw[0], tw[0]]
	VMOVUPD        16(R9), Y7      // [tw[1], tw[2]]
	VPERMILPD      $0x0, Y6, Y10   // stage-1 wr
	VPERMILPD      $0xF, Y6, Y11   // stage-1 wi
	VPERMILPD      $0x0, Y7, Y12   // stage-2 wr
	VPERMILPD      $0xF, Y7, Y13   // stage-2 wi
	MOVQ CX, AX
	SHLQ $2, AX                    // n/4 complex128 in bytes
	SHRQ $2, CX                    // output blocks
fsloop:
	MOVLQSX     (R8), BX           // r = rev[4b]
	SHLQ        $4, BX
	ADDQ        SI, BX             // &src[r]
	VMOVUPD     (BX), X0
	VINSERTF128 $1, (BX)(AX*1), Y0, Y0  // [x0, x2]
	LEAQ        (BX)(AX*2), BX          // &src[r+n/2]
	VMOVUPD     (BX), X1
	VINSERTF128 $1, (BX)(AX*1), Y1, Y1  // [x1, x3]
	// Stage half = 1: (x0,x1) and (x2,x3) with tw[0].
	VMULPD     Y1, Y10, Y4
	VPERMILPD  $0x5, Y1, Y5
	VMULPD     Y5, Y11, Y5
	VADDSUBPD  Y5, Y4, Y4               // t = [x1, x3] * tw[0]
	VADDPD     Y4, Y0, Y2               // [y0, y2]
	VSUBPD     Y4, Y0, Y3               // [y1, y3]
	VPERM2F128 $0x20, Y3, Y2, Y0        // [y0, y1]
	VPERM2F128 $0x31, Y3, Y2, Y1        // [y2, y3]
	// Stage half = 2: (y0,y2) with tw[1], (y1,y3) with tw[2].
	VMULPD     Y1, Y12, Y4
	VPERMILPD  $0x5, Y1, Y5
	VMULPD     Y5, Y13, Y5
	VADDSUBPD  Y5, Y4, Y4               // t = [y2, y3] * [tw[1], tw[2]]
	VADDPD     Y4, Y0, Y2
	VMOVUPD    Y2, (DI)                 // [z0, z1]
	VSUBPD     Y4, Y0, Y3
	VMOVUPD    Y3, 32(DI)               // [z2, z3]
	ADDQ       $16, R8
	ADDQ       $64, DI
	DECQ       CX
	JNZ        fsloop
	VZEROUPPER
	RET

// func fftStage2AVX(x *complex128, n, half int, tw *complex128)
//
// Two radix-2 stages (half-sizes half and 2*half, half >= 2) in one sweep
// over the n-element array at x: fftRows2AVX's schedule within one row,
// where the twiddles differ per lane instead of per row pair. For each
// size-4*half block and each pair of lanes j, j+1 < half, the quarters
// a = x[start+j], b = a+half, c = a+2*half, d = a+3*half are loaded once
// and butterflied twice: (a,b) and (c,d) with the stage-half twiddles
// tw[j], then (a,c) with tw[half+j] and (b,d) with tw[2*half+j], which are
// stg[2h-1+j] and stg[3h-1+j] for tw = &stg[h-1] in the stage-major
// layout. Every element sees fftStageAVX's sequence, stage by stage.
TEXT ·fftStage2AVX(SB), NOSPLIT, $0-32
	MOVQ x+0(FP), DI
	MOVQ n+8(FP), AX
	MOVQ half+16(FP), DX
	MOVQ tw+24(FP), R9
	SHLQ $4, AX              // n in bytes
	SHLQ $4, DX              // half in bytes
	LEAQ (DI)(AX*1), R8      // end of the array
	LEAQ (R9)(DX*1), R11     // stage-2*half twiddles of the a quarter
	LEAQ (R11)(DX*1), R12    // ... and of the b quarter
s2blk:
	CMPQ DI, R8
	JGE  s2done
	LEAQ (DI)(DX*1), BX      // b quarter
	LEAQ (BX)(DX*1), R10     // c quarter
	LEAQ (R10)(DX*1), R13    // d quarter
	XORQ SI, SI
s2lane:
	CMPQ SI, DX
	JGE  s2lanedone
	VMOVUPD   (R9)(SI*1), Y6
	VPERMILPD $0x0, Y6, Y10       // w1 = tw[j]
	VPERMILPD $0xF, Y6, Y11
	VMOVUPD   (R11)(SI*1), Y7
	VPERMILPD $0x0, Y7, Y12       // w2 = tw[half+j]
	VPERMILPD $0xF, Y7, Y13
	VMOVUPD   (R12)(SI*1), Y8
	VPERMILPD $0x0, Y8, Y14       // w3 = tw[2*half+j]
	VPERMILPD $0xF, Y8, Y15
	VMOVUPD   (DI)(SI*1), Y0      // a
	VMOVUPD   (BX)(SI*1), Y1      // b
	VMOVUPD   (R10)(SI*1), Y2     // c
	VMOVUPD   (R13)(SI*1), Y3     // d
	// Stage half: (a,b) and (c,d) with w1.
	VMULPD    Y1, Y10, Y4
	VPERMILPD $0x5, Y1, Y5
	VMULPD    Y5, Y11, Y5
	VADDSUBPD Y5, Y4, Y4          // t = b * w1
	VSUBPD    Y4, Y0, Y1          // b = a - t
	VADDPD    Y4, Y0, Y0          // a = a + t
	VMULPD    Y3, Y10, Y6
	VPERMILPD $0x5, Y3, Y7
	VMULPD    Y7, Y11, Y7
	VADDSUBPD Y7, Y6, Y6          // t = d * w1
	VSUBPD    Y6, Y2, Y3          // d = c - t
	VADDPD    Y6, Y2, Y2          // c = c + t
	// Stage 2*half: (a,c) with w2, (b,d) with w3.
	VMULPD    Y2, Y12, Y4
	VPERMILPD $0x5, Y2, Y5
	VMULPD    Y5, Y13, Y5
	VADDSUBPD Y5, Y4, Y4          // t = c * w2
	VSUBPD    Y4, Y0, Y2          // c = a - t
	VADDPD    Y4, Y0, Y0          // a = a + t
	VMULPD    Y3, Y14, Y6
	VPERMILPD $0x5, Y3, Y7
	VMULPD    Y7, Y15, Y7
	VADDSUBPD Y7, Y6, Y6          // t = d * w3
	VSUBPD    Y6, Y1, Y3          // d = b - t
	VADDPD    Y6, Y1, Y1          // b = b + t
	VMOVUPD   Y0, (DI)(SI*1)
	VMOVUPD   Y1, (BX)(SI*1)
	VMOVUPD   Y2, (R10)(SI*1)
	VMOVUPD   Y3, (R13)(SI*1)
	ADDQ      $32, SI
	JMP       s2lane
s2lanedone:
	LEAQ (R13)(DX*1), DI     // next block: skip the b, c and d quarters
	JMP  s2blk
s2done:
	VZEROUPPER
	RET

// func fftRows1AVX(x *complex128, stride, h, half int, tw *complex128)
//
// One radix-2 stage (half-size half >= 1) down every column of the
// h x stride row-major raster at x, butterflying whole rows: for each
// size-2*half block of rows and each j < half, rows a = start+j and
// b = a+half take the twiddle tw[j] (the stage's contiguous run), and every
// column c gets x[a][c], x[b][c] = a+b*w, a-b*w. The twiddle is broadcast
// to every lane, so each element goes through fftStageAVX's multiply and
// add/sub sequence exactly. Two columns go per 256-bit vector; an odd
// stride's last column (a half spectrum's Nyquist column) takes the same
// sequence in its 128-bit form.
TEXT ·fftRows1AVX(SB), NOSPLIT, $0-40
	MOVQ x+0(FP), DI
	MOVQ stride+8(FP), AX
	MOVQ h+16(FP), CX
	MOVQ half+24(FP), R13
	MOVQ tw+32(FP), R10
	MOVQ AX, BX
	SHRQ $1, BX              // whole vectors per row
	SHLQ $4, AX              // row stride in bytes
	IMULQ AX, CX
	LEAQ (DI)(CX*1), R8      // end of the raster
	IMULQ AX, R13            // half rows in bytes
r1blk:
	CMPQ DI, R8
	JGE  r1done
	MOVQ DI, SI              // row a for j = 0
	LEAQ (DI)(R13*1), R12    // row a ends here: the block's b half
	MOVQ R10, R9             // twiddle for j = 0
r1row:
	CMPQ SI, R12
	JGE  r1rowdone
	VBROADCASTSD (R9), Y10   // [wr x4]
	VBROADCASTSD 8(R9), Y11  // [wi x4]
	MOVQ SI, R11
	MOVQ BX, CX
r1col:
	TESTQ CX, CX
	JZ    r1coldone
	VMOVUPD   (R11), Y0          // a
	VMOVUPD   (R11)(R13*1), Y1   // b
	VMULPD    Y1, Y10, Y4        // b * wr
	VPERMILPD $0x5, Y1, Y5
	VMULPD    Y5, Y11, Y5        // bswap * wi
	VADDSUBPD Y5, Y4, Y4         // t = b * w
	VADDPD    Y4, Y0, Y6
	VMOVUPD   Y6, (R11)          // a + t
	VSUBPD    Y4, Y0, Y7
	VMOVUPD   Y7, (R11)(R13*1)   // a - t
	ADDQ      $32, R11
	DECQ      CX
	JMP       r1col
r1coldone:
	MOVQ  stride+8(FP), CX
	TESTQ $1, CX
	JZ    r1next
	VMOVUPD   (R11), X0          // the odd last column
	VMOVUPD   (R11)(R13*1), X1
	VMULPD    X1, X10, X4
	VPERMILPD $0x1, X1, X5
	VMULPD    X5, X11, X5
	VADDSUBPD X5, X4, X4
	VADDPD    X4, X0, X6
	VMOVUPD   X6, (R11)
	VSUBPD    X4, X0, X7
	VMOVUPD   X7, (R11)(R13*1)
r1next:
	ADDQ AX, SI
	ADDQ $16, R9
	JMP  r1row
r1rowdone:
	LEAQ (R12)(R13*1), DI    // next block: skip the b half
	JMP  r1blk
r1done:
	VZEROUPPER
	RET

// func fftRows2AVX(x *complex128, stride, h, half int, tw *complex128)
//
// Two radix-2 stages (half-sizes half and 2*half) in one sweep down every
// column of the h x stride row-major raster at x. For each size-4*half
// block and each j < half, the four rows a = start+j, b = a+half,
// c = a+2*half, d = a+3*half are loaded once and butterflied twice: (a,b)
// and (c,d) with the stage-half twiddle tw[j], then (a,c) with tw[half+j]
// and (b,d) with tw[2*half+j], the stage-2*half twiddles of rows a and b.
// tw points at stage half's contiguous run, which the stage-major layout
// (tables.go) follows directly with stage 2*half's. Every element sees the
// same per-stage operations as fftRows1AVX, in the same stage order; only
// the loads and stores between the two stages are saved. An odd stride's
// last column runs the same sequence in its 128-bit form.
TEXT ·fftRows2AVX(SB), NOSPLIT, $0-40
	MOVQ x+0(FP), DI
	MOVQ stride+8(FP), AX
	MOVQ h+16(FP), CX
	MOVQ half+24(FP), R13
	MOVQ tw+32(FP), R9       // stage-half twiddle for j = 0
	MOVQ AX, BX
	SHRQ $1, BX              // whole vectors per row
	SHLQ $4, AX              // row stride in bytes
	IMULQ AX, CX
	LEAQ (DI)(CX*1), R8      // end of the raster
	MOVQ R13, DX
	SHLQ $4, DX              // half twiddles in bytes
	IMULQ AX, R13            // half rows in bytes
r2blk:
	CMPQ DI, R8
	JGE  r2done
	MOVQ DI, SI              // row a for j = 0
	LEAQ (DI)(R13*1), R12    // row a ends here: the block's b quarter
r2row:
	CMPQ SI, R12
	JGE  r2rowdone
	VBROADCASTSD (R9), Y10        // w1 = tw[j]
	VBROADCASTSD 8(R9), Y11
	VBROADCASTSD (R9)(DX*1), Y12  // w2 = tw[half+j]
	VBROADCASTSD 8(R9)(DX*1), Y13
	VBROADCASTSD (R9)(DX*2), Y14  // w3 = tw[2*half+j]
	VBROADCASTSD 8(R9)(DX*2), Y15
	MOVQ SI, R11                  // a, with b at +R13
	LEAQ (SI)(R13*2), R10         // c, with d at +R13
	MOVQ BX, CX
r2col:
	TESTQ CX, CX
	JZ    r2coldone
	VMOVUPD (R11), Y0             // a
	VMOVUPD (R11)(R13*1), Y1      // b
	VMOVUPD (R10), Y2             // c
	VMOVUPD (R10)(R13*1), Y3      // d
	// Stage half: (a,b) and (c,d) with w1.
	VMULPD    Y1, Y10, Y4
	VPERMILPD $0x5, Y1, Y5
	VMULPD    Y5, Y11, Y5
	VADDSUBPD Y5, Y4, Y4          // t = b * w1
	VSUBPD    Y4, Y0, Y1          // b = a - t
	VADDPD    Y4, Y0, Y0          // a = a + t
	VMULPD    Y3, Y10, Y6
	VPERMILPD $0x5, Y3, Y7
	VMULPD    Y7, Y11, Y7
	VADDSUBPD Y7, Y6, Y6          // t = d * w1
	VSUBPD    Y6, Y2, Y3          // d = c - t
	VADDPD    Y6, Y2, Y2          // c = c + t
	// Stage 2*half: (a,c) with w2, (b,d) with w3.
	VMULPD    Y2, Y12, Y4
	VPERMILPD $0x5, Y2, Y5
	VMULPD    Y5, Y13, Y5
	VADDSUBPD Y5, Y4, Y4          // t = c * w2
	VSUBPD    Y4, Y0, Y2          // c = a - t
	VADDPD    Y4, Y0, Y0          // a = a + t
	VMULPD    Y3, Y14, Y6
	VPERMILPD $0x5, Y3, Y7
	VMULPD    Y7, Y15, Y7
	VADDSUBPD Y7, Y6, Y6          // t = d * w3
	VSUBPD    Y6, Y1, Y3          // d = b - t
	VADDPD    Y6, Y1, Y1          // b = b + t
	VMOVUPD   Y0, (R11)
	VMOVUPD   Y1, (R11)(R13*1)
	VMOVUPD   Y2, (R10)
	VMOVUPD   Y3, (R10)(R13*1)
	ADDQ      $32, R11
	ADDQ      $32, R10
	DECQ      CX
	JMP       r2col
r2coldone:
	MOVQ  stride+8(FP), CX
	TESTQ $1, CX
	JZ    r2next
	VMOVUPD   (R11), X0           // the odd last column
	VMOVUPD   (R11)(R13*1), X1
	VMOVUPD   (R10), X2
	VMOVUPD   (R10)(R13*1), X3
	VMULPD    X1, X10, X4
	VPERMILPD $0x1, X1, X5
	VMULPD    X5, X11, X5
	VADDSUBPD X5, X4, X4
	VSUBPD    X4, X0, X1
	VADDPD    X4, X0, X0
	VMULPD    X3, X10, X6
	VPERMILPD $0x1, X3, X7
	VMULPD    X7, X11, X7
	VADDSUBPD X7, X6, X6
	VSUBPD    X6, X2, X3
	VADDPD    X6, X2, X2
	VMULPD    X2, X12, X4
	VPERMILPD $0x1, X2, X5
	VMULPD    X5, X13, X5
	VADDSUBPD X5, X4, X4
	VSUBPD    X4, X0, X2
	VADDPD    X4, X0, X0
	VMULPD    X3, X14, X6
	VPERMILPD $0x1, X3, X7
	VMULPD    X7, X15, X7
	VADDSUBPD X7, X6, X6
	VSUBPD    X6, X1, X3
	VADDPD    X6, X1, X1
	VMOVUPD   X0, (R11)
	VMOVUPD   X1, (R11)(R13*1)
	VMOVUPD   X2, (R10)
	VMOVUPD   X3, (R10)(R13*1)
r2next:
	ADDQ AX, SI
	ADDQ $16, R9
	JMP  r2row
r2rowdone:
	LEAQ (R12)(R13*2), DI    // next block: skip the b, c and d quarters
	ADDQ R13, DI
	SUBQ DX, R9              // back to the twiddle of j = 0
	JMP  r2blk
r2done:
	VZEROUPPER
	RET

// func cmulAVX(dst, a, b *complex128, n int)
//
// dst[i] = a[i] * b[i] for i < n, two bins per iteration. n must be even
// (the Go wrapper peels the odd tail).
TEXT ·cmulAVX(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), BX
	MOVQ n+24(FP), CX
	SHLQ $4, CX
	XORQ DX, DX
cmloop:
	CMPQ DX, CX
	JGE  cmdone
	VMOVUPD   (SI)(DX*1), Y1
	VMOVUPD   (BX)(DX*1), Y2
	VPERMILPD $0x0, Y2, Y10
	VPERMILPD $0xF, Y2, Y11
	VMULPD    Y1, Y10, Y12
	VPERMILPD $0x5, Y1, Y13
	VMULPD    Y13, Y11, Y13
	VADDSUBPD Y13, Y12, Y14
	VMOVUPD   Y14, (DI)(DX*1)
	ADDQ      $32, DX
	JMP       cmloop
cmdone:
	VZEROUPPER
	RET

// func cmulConjAVX(dst, a, b *complex128, n int)
//
// dst[i] = a[i] * conj(b[i]) for i < n (n even). The conjugation is an
// exact sign-bit flip, then the shared multiply sequence.
TEXT ·cmulConjAVX(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), BX
	MOVQ n+24(FP), CX
	SHLQ $4, CX
	XORQ DX, DX
	VMOVUPD conjMask<>(SB), Y8
ccloop:
	CMPQ DX, CX
	JGE  ccdone
	VMOVUPD   (SI)(DX*1), Y1
	VMOVUPD   (BX)(DX*1), Y2
	VXORPD    Y8, Y2, Y2       // conj(b)
	VPERMILPD $0x0, Y2, Y10
	VPERMILPD $0xF, Y2, Y11
	VMULPD    Y1, Y10, Y12
	VPERMILPD $0x5, Y1, Y13
	VMULPD    Y13, Y11, Y13
	VADDSUBPD Y13, Y12, Y14
	VMOVUPD   Y14, (DI)(DX*1)
	ADDQ      $32, DX
	JMP       ccloop
ccdone:
	VZEROUPPER
	RET

// func accumConjAVX(acc, a, b *complex128, n int)
//
// acc[i] += a[i] * conj(b[i]) for i < n (n even) — the fused
// frequency-domain gradient accumulation. The add reads the prior
// accumulator value exactly as the scalar += does.
TEXT ·accumConjAVX(SB), NOSPLIT, $0-32
	MOVQ acc+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), BX
	MOVQ n+24(FP), CX
	SHLQ $4, CX
	XORQ DX, DX
	VMOVUPD conjMask<>(SB), Y8
acloop:
	CMPQ DX, CX
	JGE  acdone
	VMOVUPD   (SI)(DX*1), Y1
	VMOVUPD   (BX)(DX*1), Y2
	VXORPD    Y8, Y2, Y2
	VPERMILPD $0x0, Y2, Y10
	VPERMILPD $0xF, Y2, Y11
	VMULPD    Y1, Y10, Y12
	VPERMILPD $0x5, Y1, Y13
	VMULPD    Y13, Y11, Y13
	VADDSUBPD Y13, Y12, Y14
	VMOVUPD   (DI)(DX*1), Y0
	VADDPD    Y14, Y0, Y15     // acc + product, scalar += order
	VMOVUPD   Y15, (DI)(DX*1)
	ADDQ      $32, DX
	JMP       acloop
acdone:
	VZEROUPPER
	RET

// func rfftUntangleAVX(pa, pd, ptw *complex128, np int)
//
// np double-iterations of the forward half-spectrum untangle (rfftRow):
// iteration i handles bins k = 1+2i and k+1 with
//
//	a = z[k], b = conj(z[m-k])
//	even = (a+b) * (0.5+0i)
//	odd  = (a-b) * (0-0.5i)
//	t    = odd * w_k                    (w from the length-n table)
//	dst[k]   = even + t
//	dst[m-k] = conj(even - t)
//
// pa points at z[1] (ascending), pd at z[m-2] (the descending pair is
// loaded as one vector and lane-swapped), ptw at fwd[1]. The 0.5-scalings
// run the full complex-multiply formula — including the ±0 imaginary
// products — because that is what the scalar `(a+b) * 0.5` compiles to.
TEXT ·rfftUntangleAVX(SB), NOSPLIT, $0-32
	MOVQ pa+0(FP), DI
	MOVQ pd+8(FP), BX
	MOVQ ptw+16(FP), R9
	MOVQ np+24(FP), CX
	VMOVUPD      conjMask<>(SB), Y8
	VBROADCASTSD halfConst<>(SB), Y9     // [0.5 x4]
	VXORPD       Y10, Y10, Y10           // [0 x4]
	VBROADCASTSD negHalfConst<>(SB), Y11 // [-0.5 x4]
unloop:
	TESTQ CX, CX
	JZ    undone
	VMOVUPD    (DI), Y0            // a = [z[k], z[k+1]]
	VMOVUPD    (BX), Y1            // [z[m-k-1], z[m-k]]
	VPERM2F128 $0x01, Y1, Y1, Y1   // [z[m-k], z[m-k-1]]
	VXORPD     Y8, Y1, Y1          // b = conj
	VADDPD     Y1, Y0, Y2          // s = a + b
	VSUBPD     Y1, Y0, Y3          // d = a - b
	// even = cmul(s, 0.5+0i): wr = 0.5, wi = +0
	VMULPD    Y2, Y9, Y13
	VPERMILPD $0x5, Y2, Y14
	VMULPD    Y14, Y10, Y14
	VADDSUBPD Y14, Y13, Y4
	// odd = cmul(d, 0-0.5i): wr = +0, wi = -0.5
	VMULPD    Y3, Y10, Y13
	VPERMILPD $0x5, Y3, Y14
	VMULPD    Y14, Y11, Y14
	VADDSUBPD Y14, Y13, Y5
	// t = cmul(odd, w)
	VMOVUPD   (R9), Y6
	VPERMILPD $0x0, Y6, Y13
	VPERMILPD $0xF, Y6, Y14
	VMULPD    Y5, Y13, Y13
	VPERMILPD $0x5, Y5, Y15
	VMULPD    Y15, Y14, Y14
	VADDSUBPD Y14, Y13, Y7
	// dst[k] = even + t
	VADDPD  Y7, Y4, Y13
	VMOVUPD Y13, (DI)
	// dst[m-k] = conj(even - t), stored lane-swapped descending
	VSUBPD     Y7, Y4, Y13
	VXORPD     Y8, Y13, Y13
	VPERM2F128 $0x01, Y13, Y13, Y13
	VMOVUPD    Y13, (BX)
	ADDQ $32, DI
	ADDQ $32, R9
	SUBQ $32, BX
	DECQ CX
	JMP  unloop
undone:
	VZEROUPPER
	RET

// func irfftRepackAVX(pa, pd, ptw *complex128, np int)
//
// np double-iterations of the inverse repack (irfftRow): iteration i
// handles bins k = 1+2i and k+1 with
//
//	a = src[k], b = conj(src[m-k])
//	even = (a+b) * (0.5+0i)
//	h    = (a-b) * (0.5+0i)
//	odd  = h * conj(w_k)
//	src[k]   = even + i*odd
//	src[m-k] = conj(even) + i*conj(odd)
//
// Pointer layout matches rfftUntangleAVX.
TEXT ·irfftRepackAVX(SB), NOSPLIT, $0-32
	MOVQ pa+0(FP), DI
	MOVQ pd+8(FP), BX
	MOVQ ptw+16(FP), R9
	MOVQ np+24(FP), CX
	VMOVUPD      conjMask<>(SB), Y8
	VBROADCASTSD halfConst<>(SB), Y9
	VXORPD       Y10, Y10, Y10
	VMOVUPD      negReMask<>(SB), Y12
reloop:
	TESTQ CX, CX
	JZ    redone
	VMOVUPD    (DI), Y0
	VMOVUPD    (BX), Y1
	VPERM2F128 $0x01, Y1, Y1, Y1
	VXORPD     Y8, Y1, Y1          // b = conj(src[m-k])
	VADDPD     Y1, Y0, Y2          // s = a + b
	VSUBPD     Y1, Y0, Y3          // d = a - b
	// even = cmul(s, 0.5+0i)
	VMULPD    Y2, Y9, Y13
	VPERMILPD $0x5, Y2, Y14
	VMULPD    Y14, Y10, Y14
	VADDSUBPD Y14, Y13, Y4
	// h = cmul(d, 0.5+0i)
	VMULPD    Y3, Y9, Y13
	VPERMILPD $0x5, Y3, Y14
	VMULPD    Y14, Y10, Y14
	VADDSUBPD Y14, Y13, Y5
	// odd = cmul(h, conj(w))
	VMOVUPD   (R9), Y6
	VXORPD    Y8, Y6, Y6
	VPERMILPD $0x0, Y6, Y13
	VPERMILPD $0xF, Y6, Y14
	VMULPD    Y5, Y13, Y13
	VPERMILPD $0x5, Y5, Y15
	VMULPD    Y15, Y14, Y14
	VADDSUBPD Y14, Y13, Y7
	// src[k] = even + i*odd, where i*odd = [-odd_i, odd_r]
	VPERMILPD $0x5, Y7, Y13
	VXORPD    Y12, Y13, Y13
	VADDPD    Y13, Y4, Y13
	VMOVUPD   Y13, (DI)
	// src[m-k] = conj(even) + i*conj(odd) = [even_r + odd_i, odd_r - even_i]
	VXORPD     Y8, Y4, Y14
	VPERMILPD  $0x5, Y7, Y15
	VADDPD     Y15, Y14, Y14
	VPERM2F128 $0x01, Y14, Y14, Y14
	VMOVUPD    Y14, (BX)
	ADDQ $32, DI
	ADDQ $32, R9
	SUBQ $32, BX
	DECQ CX
	JMP  reloop
redone:
	VZEROUPPER
	RET

// func packPairsAVX(dst *complex128, src *float64, n int)
//
// The rfft even/odd pack: dst[j] = complex(src[2j], src[2j+1]) for j < n,
// which is a straight 16n-byte copy reinterpreting float64 pairs as
// complex128 — the scalar loop's loads and stores, 32 bytes at a time.
TEXT ·packPairsAVX(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	SHLQ $4, CX
	XORQ DX, DX
ppvec:
	LEAQ 32(DX), AX
	CMPQ AX, CX
	JGT  pptail
	VMOVUPD (SI)(DX*1), Y0
	VMOVUPD Y0, (DI)(DX*1)
	MOVQ    AX, DX
	JMP     ppvec
pptail:
	CMPQ DX, CX
	JGE  ppdone
	VMOVUPD (SI)(DX*1), X0
	VMOVUPD X0, (DI)(DX*1)
	ADDQ    $16, DX
	JMP     pptail
ppdone:
	VZEROUPPER
	RET

// func scaleUnpackAVX(dst *float64, src *complex128, s, t float64, n int)
//
// The irfft unpack: dst[2j] = (real(src[j])*s)*t, dst[2j+1] =
// (imag(src[j])*s)*t for j < n — elementwise float64 multiplies by the
// broadcast row norm and then the broadcast column norm, exactly the scalar
// expression's two roundings in its order.
TEXT ·scaleUnpackAVX(SB), NOSPLIT, $0-40
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	VBROADCASTSD s+16(FP), Y1
	VBROADCASTSD t+24(FP), Y2
	MOVQ         n+32(FP), CX
	SHLQ         $4, CX
	XORQ         DX, DX
suvec:
	LEAQ 32(DX), AX
	CMPQ AX, CX
	JGT  sutail
	VMOVUPD (SI)(DX*1), Y0
	VMULPD  Y0, Y1, Y0
	VMULPD  Y0, Y2, Y0
	VMOVUPD Y0, (DI)(DX*1)
	MOVQ    AX, DX
	JMP     suvec
sutail:
	CMPQ DX, CX
	JGE  sudone
	VMOVUPD (SI)(DX*1), X0
	VMULPD  X0, X1, X0
	VMULPD  X0, X2, X0
	VMOVUPD X0, (DI)(DX*1)
	ADDQ    $16, DX
	JMP     sutail
sudone:
	VZEROUPPER
	RET
