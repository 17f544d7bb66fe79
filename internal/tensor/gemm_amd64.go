package tensor

import "ldmo/internal/fft"

// haveAVX gates the SIMD micro-kernels. Detected once at init; when the host
// lacks AVX (or the OS doesn't save YMM state) the pure-Go kernels run
// instead, producing bit-identical results.
var haveAVX = cpuidAVX()

// haveAVX512 gates the AVX-512 register tile. It is the fft package's probe
// (AVX512F with OS-saved opmask and ZMM state), the one that lists
// "avx512f" in fft.CPUFeatures, so every bench record names the tile that
// ran.
var haveAVX512 = fft.HasAVX512F()

// cpuidAVX reports CPU+OS support for 256-bit AVX (CPUID feature flags plus
// XCR0 state enablement). Implemented in gemm_amd64.s.
func cpuidAVX() bool

// kern4x8AVX is the AVX form of kern4 over the whole strip: c_r[j] +=
// apack[kk*4+r] * bpack[kk*nc+j] for ascending kk and every j < nc, with
// each 4x8 C tile held in registers across the kc steps and the last 1..3
// columns under a lane mask. kc must be positive. Implemented in
// gemm_amd64.s.
//
//go:noescape
func kern4x8AVX(apack, bpack, c0, c1, c2, c3 *float64, kc, nc int)

// kern4x16AVX512 is kern4x8AVX's contract on 4x16 C tiles held in ZMM
// registers, with the last 1..15 columns under an opmask. kc must be
// positive. Implemented in gemm_amd64.s.
//
//go:noescape
func kern4x16AVX512(apack, bpack, c0, c1, c2, c3 *float64, kc, nc int)

// dot4x4AVX computes a 4x4 tile of A x B^T: o_r[0..3] = sum_kk a_r[kk] *
// bpack[kk*4+s], accumulated in registers over ascending kk and stored as
// four contiguous doubles per output row. Implemented in gemm_amd64.s.
//
//go:noescape
func dot4x4AVX(a0, a1, a2, a3, bpack *float64, k int, o0, o1, o2, o3 *float64)
