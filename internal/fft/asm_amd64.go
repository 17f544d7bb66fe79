package fft

// haveAVX/haveAVX2 are the host's CPU+OS vector capabilities, probed once at
// init. The kernels in asm_amd64.s encode only VEX.256 AVX1 operations, but
// the engine gates on AVX2: pre-AVX2 parts (Sandy/Ivy Bridge) split 256-bit
// loads into two 128-bit halves, which erases the win on these
// load-dominated streaming kernels, and AVX2 is the same line the GEMM
// engine's profitable hosts sit behind in practice. haveFMA (FMA3 with
// OS-saved YMM state) and haveAVX512F (AVX-512F with OS-saved opmask and
// ZMM state) gate no kernel here; they are probed for HasFMA and
// HasAVX512F.
var haveAVX, haveAVX2, haveFMA, haveAVX512F = cpuFeatureProbe()

// haveFFTASM reports whether the vector spectral kernels can run on this
// host, which is exactly when they do run (see asm.go).
var haveFFTASM = haveAVX && haveAVX2

// cpuFeatureProbe reports CPU+OS support for 256-bit AVX (CPUID feature
// flags plus XCR0 state enablement), AVX2, FMA3 and AVX-512F. Implemented
// in asm_amd64.s.
func cpuFeatureProbe() (avx, avx2, fma, avx512f bool)

// fftStageAVX runs one whole radix-2 butterfly stage (stage half >= 2) over
// the n-element array at x, reading the stage's contiguous twiddle run at
// tw. Bit-identical to the scalar stage loop on finite inputs. Implemented
// in asm_amd64.s.
//
//go:noescape
func fftStageAVX(x *complex128, n, half int, tw *complex128)

// fftFirstSweepAVX writes the bit-reversal permutation of the n-element
// natural-order array at src (n >= 4), with the first two radix-2 stages
// applied, to dst: each output block of four is read from its bit-reversed
// sources (rev is the n-point permutation) and butterflied in registers.
// tw points at the stage-major twiddle run's start. Bit-identical to the
// scalar permutation and stage loops on finite inputs. Implemented in
// asm_amd64.s.
//
//go:noescape
func fftFirstSweepAVX(dst, src *complex128, rev *int32, n int, tw *complex128)

// fftStage2AVX runs the two radix-2 stages of half-sizes half and 2*half
// (half >= 2) in one sweep over the n-element array at x; tw points at
// stage half's twiddle run, which stage 2*half's follows in the stage-major
// layout. Implemented in asm_amd64.s.
//
//go:noescape
func fftStage2AVX(x *complex128, n, half int, tw *complex128)

// fftRows1AVX runs one radix-2 stage of half-size half >= 1 down every
// column of the h x stride row-major raster at x, pairing whole rows and
// reading the stage's contiguous twiddle run at tw. Bit-identical per
// column to the scalar stage loop on finite inputs. Implemented in
// asm_amd64.s.
//
//go:noescape
func fftRows1AVX(x *complex128, stride, h, half int, tw *complex128)

// fftRows2AVX runs the two stages of half-sizes half and 2*half in one
// sweep over the same columns as fftRows1AVX; tw points at stage half's
// twiddle run, which stage 2*half's follows in the stage-major layout.
// Implemented in asm_amd64.s.
//
//go:noescape
func fftRows2AVX(x *complex128, stride, h, half int, tw *complex128)

// cmulAVX computes dst[i] = a[i] * b[i] for i < n; n must be even.
// Implemented in asm_amd64.s.
//
//go:noescape
func cmulAVX(dst, a, b *complex128, n int)

// cmulConjAVX computes dst[i] = a[i] * conj(b[i]) for i < n; n must be
// even. Implemented in asm_amd64.s.
//
//go:noescape
func cmulConjAVX(dst, a, b *complex128, n int)

// accumConjAVX computes acc[i] += a[i] * conj(b[i]) for i < n; n must be
// even. Implemented in asm_amd64.s.
//
//go:noescape
func accumConjAVX(acc, a, b *complex128, n int)

// rfftUntangleAVX runs np double-iterations of the forward half-spectrum
// untangle: pa at z[1], pd at z[m-2], ptw at the length-n forward twiddles'
// index 1. Implemented in asm_amd64.s.
//
//go:noescape
func rfftUntangleAVX(pa, pd, ptw *complex128, np int)

// irfftRepackAVX runs np double-iterations of the inverse half-spectrum
// repack, with the pointer layout of rfftUntangleAVX. Implemented in
// asm_amd64.s.
//
//go:noescape
func irfftRepackAVX(pa, pd, ptw *complex128, np int)

// packPairsAVX packs 2n float64 at src into n complex128 at dst (the rfft
// even/odd interleave, a reinterpreting copy). Implemented in asm_amd64.s.
//
//go:noescape
func packPairsAVX(dst *complex128, src *float64, n int)

// scaleUnpackAVX unpacks n complex128 at src into 2n float64 at dst,
// multiplying every component by s and then by t. Implemented in
// asm_amd64.s.
//
//go:noescape
func scaleUnpackAVX(dst *float64, src *complex128, s, t float64, n int)
