package fft

// haveAVX/haveAVX2 are the host's CPU+OS vector capabilities, probed once at
// init. The kernels in asm_amd64.s encode only VEX.256 AVX1 operations, but
// the engine gates on AVX2: pre-AVX2 parts (Sandy/Ivy Bridge) split 256-bit
// loads into two 128-bit halves, which erases the win on these
// load-dominated streaming kernels, and AVX2 is the same line the GEMM
// engine's profitable hosts sit behind in practice.
var haveAVX, haveAVX2 = cpuFeatureProbe()

// haveFFTASM reports whether the vector spectral kernels can run on this
// host, which is exactly when they do run (see asm.go).
var haveFFTASM = haveAVX && haveAVX2

// cpuFeatureProbe reports CPU+OS support for 256-bit AVX (CPUID feature
// flags plus XCR0 state enablement) and AVX2. Implemented in asm_amd64.s.
func cpuFeatureProbe() (avx, avx2 bool)

// fftStageAVX runs one whole radix-2 butterfly stage (stage half >= 2) over
// the n-element array at x, reading the stage's contiguous twiddle run at
// tw. Bit-identical to the scalar stage loop on finite inputs. Implemented
// in asm_amd64.s.
//
//go:noescape
func fftStageAVX(x *complex128, n, half int, tw *complex128)

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
// multiplying every component by s. Implemented in asm_amd64.s.
//
//go:noescape
func scaleUnpackAVX(dst *float64, src *complex128, s float64, n int)
