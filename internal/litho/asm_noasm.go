//go:build !amd64

package litho

// Non-amd64 builds run the scalar loops only: the fft vector engine is
// never enabled there, so neither the sigmoid self-check nor the per-pixel
// dispatch selects a kernel, and the stubs below are unreachable.

func sigmoidAVXFMA(dst, src *float64, n int, a, b float64) int {
	panic("litho: sigmoidAVXFMA without AVX support")
}

func accumSquaresAVX(out, a *float64, n int, w float64) {
	panic("litho: accumSquaresAVX without AVX support")
}

func weightFieldAVX(dst, grad, a *float64, n int, c float64) {
	panic("litho: weightFieldAVX without AVX support")
}

func resistBackwardAVX(gradI, gradT, t *float64, n int, tz float64) {
	panic("litho: resistBackwardAVX without AVX support")
}

func composeDoubleAVX(out, t1, t2 *float64, sat *bool, n int) {
	panic("litho: composeDoubleAVX without AVX support")
}

func composeBackwardAVX(gradT, t, target *float64, sat *bool, n int) {
	panic("litho: composeBackwardAVX without AVX support")
}

func finiteAVX(x *float64, n int) bool {
	panic("litho: finiteAVX without AVX support")
}

func maskStepAVX(p, m, grad *float64, n int, step, tm float64) {
	panic("litho: maskStepAVX without AVX support")
}
