package litho

import (
	"math"

	"ldmo/internal/fft"
)

// The per-pixel passes of an ILT iteration: the aerial accumulation and
// the adjoint weighting around the spectral engine, the resist adjoint,
// Eq. 3's composition and the loss adjoint through it, and the Eq. 1
// parameter step with the finiteness check that guards it. Each function
// below holds its pass's Go loop, which is the reference, the loop over
// the last n mod 4 elements, and the whole pass off amd64 or before AVX2;
// with vec set, an AVX2 kernel (asm_amd64.s) runs the whole vectors of
// four first and writes the loop's bits. Every function checks its
// slices' lengths first, so a short slice panics before a kernel runs.

// pixelVector reports whether the per-pixel passes run their AVX2 kernels:
// wherever the spectral engine's vector kernels run.
var pixelVector = fft.ASMEnabled()

// vecLen returns how many leading elements of an n-element pass the
// kernel takes: the whole vectors of four when vec is set, else none.
func vecLen(vec bool, n int) int {
	if vec {
		return n &^ 3
	}
	return 0
}

// accumSquares adds w·a[i]² to out[i] for every i < len(a): one kernel's
// term of the SOCS sum.
func accumSquares(vec bool, out, a []float64, w float64) {
	n := len(a)
	if n == 0 {
		return
	}
	_ = out[n-1]
	i := vecLen(vec, n)
	if i > 0 {
		accumSquaresAVX(&out[0], &a[0], i, w)
	}
	for ; i < n; i++ {
		out[i] += w * a[i] * a[i]
	}
}

// weightField writes c·g[i]·a[i] to dst[i] for every i < len(dst).
func weightField(vec bool, dst, g, a []float64, c float64) {
	n := len(dst)
	if n == 0 {
		return
	}
	_, _ = g[n-1], a[n-1]
	i := vecLen(vec, n)
	if i > 0 {
		weightFieldAVX(&dst[0], &g[0], &a[0], i, c)
	}
	for ; i < n; i++ {
		dst[i] = c * g[i] * a[i]
	}
}

// resistBackward writes gradT[i]·tz·t[i]·(1−t[i]) to gradI[i] for every
// i < len(gradI).
func resistBackward(vec bool, gradT, t, gradI []float64, tz float64) {
	n := len(gradI)
	if n == 0 {
		return
	}
	_, _ = gradT[n-1], t[n-1]
	i := vecLen(vec, n)
	if i > 0 {
		resistBackwardAVX(&gradI[0], &gradT[0], &t[0], i, tz)
	}
	for ; i < n; i++ {
		gradI[i] = gradT[i] * tz * t[i] * (1 - t[i])
	}
}

// composeDouble writes min(t1[i]+t2[i], 1) to out[i] for every i <
// len(out), and to sat[i] whether it clamped, unless sat is nil.
func composeDouble(vec bool, t1, t2, out []float64, sat []bool) {
	n := len(out)
	if n == 0 {
		return
	}
	_, _ = t1[n-1], t2[n-1]
	var satp *bool
	if sat != nil {
		_ = sat[n-1]
		satp = &sat[0]
	}
	i := vecLen(vec, n)
	if i > 0 {
		composeDoubleAVX(&out[0], &t1[0], &t2[0], satp, i)
	}
	for ; i < n; i++ {
		v := t1[i] + t2[i]
		if v > 1 {
			out[i] = 1
			if sat != nil {
				sat[i] = true
			}
		} else {
			out[i] = v
			if sat != nil {
				sat[i] = false
			}
		}
	}
}

// composeBackward writes 2·(t[i]−target[i]) to gradT[i], or +0 where
// sat[i], for every i < len(gradT).
func composeBackward(vec bool, t, target []float64, sat []bool, gradT []float64) {
	n := len(gradT)
	if n == 0 {
		return
	}
	_, _, _ = t[n-1], target[n-1], sat[n-1]
	i := vecLen(vec, n)
	if i > 0 {
		composeBackwardAVX(&gradT[0], &t[0], &target[0], &sat[0], i)
	}
	for ; i < n; i++ {
		if sat[i] {
			gradT[i] = 0
		} else {
			gradT[i] = 2 * (t[i] - target[i])
		}
	}
}

// finite reports whether xs is free of NaN and ±Inf.
func finite(vec bool, xs []float64) bool {
	i := vecLen(vec, len(xs))
	if i > 0 && !finiteAVX(&xs[0], i) {
		return false
	}
	return finiteSlice(xs[i:])
}

// finiteSlice reports whether xs is free of NaN and ±Inf.
func finiteSlice(xs []float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// maskStep runs the Eq. 1 parameter step p[i] −= step·g[i]·tm·m[i]·(1−m[i])
// for every i < len(p), unless g[:len(p)] holds a NaN or ±Inf: then it
// leaves p untouched and returns false.
func maskStep(vec bool, g, m, p []float64, step, tm float64) bool {
	n := len(p)
	if n == 0 {
		return true
	}
	_, _ = g[n-1], m[n-1]
	if !finite(vec, g[:n]) {
		return false
	}
	i := vecLen(vec, n)
	if i > 0 {
		maskStepAVX(&p[0], &m[0], &g[0], i, step, tm)
	}
	for ; i < n; i++ {
		p[i] -= step * g[i] * tm * m[i] * (1 - m[i])
	}
	return true
}
