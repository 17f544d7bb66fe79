package fft

import "fmt"

// Real-input transforms with half-spectrum (Hermitian) storage.
//
// A real n-point signal has a conjugate-symmetric spectrum, so only the
// n/2+1 non-redundant bins are stored. The forward transform packs the n
// reals into n/2 complex values (even samples real, odd samples imaginary),
// runs one half-length complex FFT, and untangles the result with the
// length-n twiddles; the inverse runs the recipe backwards. Relative to
// transforming the same signal as a full complex array this halves both the
// flops and the spectral working set, which is why the Plan uses it for
// every mask, field, and kernel transform.
//
// 2-D half spectra are laid out row-major with hw = pw/2+1 complex bins per
// row and ph rows: RFFT along rows first, then full complex FFTs down each
// of the hw columns. Pointwise products of two such spectra (mask x kernel)
// stay Hermitian, so convolution works bin-for-bin like the full-complex
// path at half the width.
//
// On the vector engine (see asm.go) the pack, the untangle/repack pair
// loop, and the inverse unpack run through the AVX kernels two bins per
// iteration; the edge bins 0, m, and m/2 and the odd leftover pair stay on
// the scalar expressions, and both engines produce bit-identical rows.

// rfftLen returns the half-spectrum length of an n-point real transform.
func rfftLen(n int) int { return n/2 + 1 }

// untangleVecPairs returns how many double-iterations of the (k, m-k) pair
// loop the vector kernels may take: pairs (k, k+1) starting at k=1 need
// k+1 < m/2, leaving the tail iteration (if any) scalar.
func untangleVecPairs(m int) int {
	np := (m/2 - 2) / 2
	if np < 0 {
		return 0
	}
	return np
}

// rfftRow computes the n-point DFT of the n reals in src (n = twN.n) into
// dst[0:n/2+1]. twM must be the tables for n/2. src may be shorter than n;
// the tail is treated as zeros (callers pad rasters implicitly).
func rfftRow(dst []complex128, src []float64, twM, twN *twiddles, vec bool) {
	n := twN.n
	m := n / 2
	if len(dst) < m+1 {
		panic(fmt.Sprintf("fft: rfft dst %d < %d", len(dst), m+1))
	}
	if n == 1 {
		v := 0.0
		if len(src) > 0 {
			v = src[0]
		}
		dst[0] = complex(v, 0)
		return
	}
	// Pack pairs of reals into the first m slots of dst, zero-extending.
	z := dst[:m]
	j0 := 0
	if vec {
		// Whole pairs are a reinterpreting copy; the kernel streams them
		// 32 bytes at a time. The boundary pair (odd src length) and the
		// zero tail keep the scalar guards.
		limit := len(src)
		if limit > n {
			limit = n
		}
		if pairs := limit / 2; pairs > 0 {
			packPairsAVX(&z[0], &src[0], pairs)
			j0 = pairs
		}
	}
	for j := j0; j < m; j++ {
		var re, im float64
		if 2*j < len(src) {
			re = src[2*j]
		}
		if 2*j+1 < len(src) {
			im = src[2*j+1]
		}
		z[j] = complex(re, im)
	}
	transformWith(z, twM, false, vec)
	// Untangle: with A = Z[k], B = conj(Z[m-k]),
	//   X[k]   = (A+B)/2 + W_n^k * (-i)(A-B)/2
	//   X[m-k] = conj((A+B)/2 - W_n^k * (-i)(A-B)/2)
	// processed as pairs so the in-place overwrite is safe.
	z0 := z[0]
	dst[0] = complex(real(z0)+imag(z0), 0)
	dst[m] = complex(real(z0)-imag(z0), 0)
	k := 1
	if vec {
		if np := untangleVecPairs(m); np > 0 {
			rfftUntangleAVX(&dst[1], &dst[m-2], &twN.fwd[1], np)
			k = 1 + 2*np
		}
	}
	for ; 2*k < m; k++ {
		a := z[k]
		b := complex(real(z[m-k]), -imag(z[m-k]))
		even := (a + b) * 0.5
		odd := (a - b) * complex(0, -0.5)
		t := twN.fwd[k] * odd
		dst[k] = even + t
		dst[m-k] = complex(real(even)-real(t), -(imag(even) - imag(t)))
	}
	if m >= 2 && m%2 == 0 {
		mid := z[m/2]
		dst[m/2] = complex(real(mid), -imag(mid))
	}
}

// irfftRow inverts rfftRow: it consumes the half spectrum in src[0:n/2+1]
// (destroying it) and writes the n reals into dst[0:n]. It applies the full
// 1/n row normalization, so irfftRow(rfftRow(x)) == x up to rounding.
func irfftRow(dst []float64, src []complex128, twM, twN *twiddles, vec bool) {
	n := twN.n
	m := n / 2
	if len(dst) < n {
		panic(fmt.Sprintf("fft: irfft dst %d < %d", len(dst), n))
	}
	if len(src) < m+1 {
		panic(fmt.Sprintf("fft: irfft src %d < %d", len(src), m+1))
	}
	if n == 1 {
		dst[0] = real(src[0])
		return
	}
	// Repack the half spectrum into the m-point packed transform:
	//   E = (X[k]+conj(X[m-k]))/2, O = conj(W_n^k)*(X[k]-conj(X[m-k]))/2,
	//   Z[k] = E + i*O.
	x0, xm := src[0], src[m]
	src[0] = complex(real(x0)+real(xm), real(x0)-real(xm)) * 0.5
	k := 1
	if vec {
		if np := untangleVecPairs(m); np > 0 {
			irfftRepackAVX(&src[1], &src[m-2], &twN.fwd[1], np)
			k = 1 + 2*np
		}
	}
	for ; 2*k < m; k++ {
		a := src[k]
		b := complex(real(src[m-k]), -imag(src[m-k]))
		even := (a + b) * 0.5
		w := twN.fwd[k]
		odd := (a - b) * 0.5 * complex(real(w), -imag(w))
		src[k] = even + complex(-imag(odd), real(odd))
		// Z[m-k] = conj(E) + i*conj(O).
		src[m-k] = complex(real(even)+imag(odd), real(odd)-imag(even))
	}
	if m >= 2 && m%2 == 0 {
		mid := src[m/2]
		src[m/2] = complex(real(mid), -imag(mid))
	}
	z := src[:m]
	transformWith(z, twM, true, vec)
	inv := 1 / float64(m)
	if vec {
		scaleUnpackAVX(&dst[0], &z[0], inv, m)
		return
	}
	for j, c := range z {
		dst[2*j] = real(c) * inv
		dst[2*j+1] = imag(c) * inv
	}
}
