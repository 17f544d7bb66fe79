//go:build !amd64

package tensor

// Non-amd64 builds run the pure-Go kernels, which follow the same
// ascending-k accumulation order and are bit-identical to the SIMD path.
// The gates are variables only so the tests can switch engines on hosts
// that have several; here both stay false.
var haveAVX, haveAVX512 = false, false

func kern4x8AVX(apack, bpack, c0, c1, c2, c3 *float64, kc, nc int) {
	panic("tensor: kern4x8AVX without AVX support")
}

func kern4x16AVX512(apack, bpack, c0, c1, c2, c3 *float64, kc, nc int) {
	panic("tensor: kern4x16AVX512 without AVX-512 support")
}

func dot4x4AVX(a0, a1, a2, a3, bpack *float64, k int, o0, o1, o2, o3 *float64) {
	panic("tensor: dot4x4AVX without AVX support")
}
