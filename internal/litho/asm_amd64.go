package litho

// sigmoidAVXFMA computes dst[i] = 1/(1+exp((src[i]-b)*a)) four lanes at a
// time for i < n (n a multiple of 4) with math.Exp's FMA branch, stopping at
// the first vector with an argument outside [-708, 709]. It returns the
// number of elements finished. Implemented in asm_amd64.s.
//
//go:noescape
func sigmoidAVXFMA(dst, src *float64, n int, a, b float64) int

// The per-pixel kernels below each run the loop of the pixel.go function
// of the same name without the AVX suffix over the first n elements (n a
// multiple of 4), bit for bit. Implemented in asm_amd64.s.

//go:noescape
func accumSquaresAVX(out, a *float64, n int, w float64)

//go:noescape
func weightFieldAVX(dst, grad, a *float64, n int, c float64)

//go:noescape
func resistBackwardAVX(gradI, gradT, t *float64, n int, tz float64)

// composeDoubleAVX writes no bools when sat is nil.
//
//go:noescape
func composeDoubleAVX(out, t1, t2 *float64, sat *bool, n int)

//go:noescape
func composeBackwardAVX(gradT, t, target *float64, sat *bool, n int)

//go:noescape
func finiteAVX(x *float64, n int) bool

//go:noescape
func maskStepAVX(p, m, grad *float64, n int, step, tm float64)
