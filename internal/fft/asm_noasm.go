//go:build !amd64

package fft

// Non-amd64 builds run the pure-Go scalar engine, which is the reference
// implementation the vector kernels are bit-identical to; the stubs below
// are never reachable because haveFFTASM is constant false.
const (
	haveAVX     = false
	haveAVX2    = false
	haveFMA     = false
	haveAVX512F = false
	haveFFTASM  = false
)

func fftStageAVX(x *complex128, n, half int, tw *complex128) {
	panic("fft: fftStageAVX without AVX support")
}

func fftFirstSweepAVX(dst, src *complex128, rev *int32, n int, tw *complex128) {
	panic("fft: fftFirstSweepAVX without AVX support")
}

func fftStage2AVX(x *complex128, n, half int, tw *complex128) {
	panic("fft: fftStage2AVX without AVX support")
}

func fftRows1AVX(x *complex128, stride, h, half int, tw *complex128) {
	panic("fft: fftRows1AVX without AVX support")
}

func fftRows2AVX(x *complex128, stride, h, half int, tw *complex128) {
	panic("fft: fftRows2AVX without AVX support")
}

func cmulAVX(dst, a, b *complex128, n int) {
	panic("fft: cmulAVX without AVX support")
}

func cmulConjAVX(dst, a, b *complex128, n int) {
	panic("fft: cmulConjAVX without AVX support")
}

func accumConjAVX(acc, a, b *complex128, n int) {
	panic("fft: accumConjAVX without AVX support")
}

func rfftUntangleAVX(pa, pd, ptw *complex128, np int) {
	panic("fft: rfftUntangleAVX without AVX support")
}

func irfftRepackAVX(pa, pd, ptw *complex128, np int) {
	panic("fft: irfftRepackAVX without AVX support")
}

func packPairsAVX(dst *complex128, src *float64, n int) {
	panic("fft: packPairsAVX without AVX support")
}

func scaleUnpackAVX(dst *float64, src *complex128, s, t float64, n int) {
	panic("fft: scaleUnpackAVX without AVX support")
}
