//go:build !amd64

package litho

// Non-amd64 builds run the scalar sigmoid loop only: the fft vector engine
// is never enabled there, so the init self-check selects no kernel and the
// stub below is unreachable.

func sigmoidAVXFMA(dst, src *float64, n int, a, b float64) int {
	panic("litho: sigmoidAVXFMA without AVX support")
}
