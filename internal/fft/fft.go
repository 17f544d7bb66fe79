// Package fft provides the radix-2 fast Fourier transforms and FFT-based
// convolution used by the lithography simulator. Aerial-image formation in
// the SOCS model is a set of 2-D convolutions of the mask with the optical
// kernels; on 224x224-class rasters the FFT path is the difference between a
// usable ILT loop and an unusable one.
//
// The transforms are table-driven: per-size twiddle factors and bit-reversal
// permutations are computed once (see tables.go) and every butterfly reads
// the exact Sincos-sampled constant, so accuracy does not degrade with
// transform length. Real-valued rasters — masks, fields, kernels, which is
// everything the simulator transforms — go through the half-spectrum RFFT
// path in rfft.go. The full-complex 2-D engine it replaced lives on in the
// package's tests as the reference the Plan is checked against.
package fft

import (
	"fmt"
	"math/bits"
)

// NextPow2 returns the smallest power of two >= n (and at least 1).
func NextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}

// IsPow2 reports whether n is a positive power of two.
func IsPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// transformWith runs the in-place radix-2 transform of x against
// precomputed tables; len(x) must equal tw.n. No normalization is applied.
// It is the scalar engine's transform, and the reference the vector
// engine's row core (transformInto) is held to bit for bit.
func transformWith(x []complex128, tw *twiddles, inverse bool) {
	n := tw.n
	if len(x) != n {
		panic(fmt.Sprintf("fft: length %d != table size %d", len(x), n))
	}
	if n <= 1 {
		return
	}
	// Bit-reversal permutation, precomputed.
	for i, r := range tw.rev {
		if int32(i) < r {
			x[i], x[r] = x[r], x[i]
		}
	}
	tab := tw.fwd
	if inverse {
		tab = tw.inv
	}
	// Iterative butterflies; stage size s reads the table with stride n/s.
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		step := n / size
		for start := 0; start < n; start += size {
			ti := 0
			for k := start; k < start+half; k++ {
				a := x[k]
				b := x[k+half] * tab[ti]
				x[k] = a + b
				x[k+half] = a - b
				ti += step
			}
		}
	}
}

// transformInto is the vector engine's row core: it writes the transform
// of the natural-order src into dst (len tw.n >= 4 each, not overlapping)
// with transformWith's bits. The permutation never runs as a pass of its
// own. fftFirstSweepAVX reads each block of four at its bit-reversed
// sources and runs stages half = 1 and 2 on it in registers; the remaining
// stages run two per sweep (fftStage2AVX), as the column pass does, with
// fftStageAVX taking an odd last stage. Every stage reads its twiddles
// from the contiguous stage-major run at stg[half-1].
func transformInto(dst, src []complex128, tw *twiddles, inverse bool) {
	n := tw.n
	if n < 4 || len(dst) != n || len(src) != n {
		panic(fmt.Sprintf("fft: row core lengths %d/%d for table size %d", len(dst), len(src), n))
	}
	stg := tw.stgFwd
	if inverse {
		stg = tw.stgInv
	}
	fftFirstSweepAVX(&dst[0], &src[0], &tw.rev[0], n, &stg[0])
	half := 4
	for ; 4*half <= n; half <<= 2 {
		fftStage2AVX(&dst[0], n, half, &stg[half-1])
	}
	if half < n {
		fftStageAVX(&dst[0], n, half, &stg[half-1])
	}
}

// transformCols transforms every column of the w x h row-major raster in
// place with the length-h tables. No normalization is applied.
//
// No column is ever gathered. The bit-reversal permutation swaps whole rows
// (permuteRows), and each butterfly applies its one twiddle to a pair of
// whole rows (colStages), so the w columns are independent lanes of every
// row operation. Each column still sees exactly transformWith's sequence:
// the same permutation, the same stages in the same order, and the same
// twiddle and complex-multiply expression per butterfly, so its bits are
// those of transforming it alone.
func transformCols(data []complex128, w, h int, tw *twiddles, inverse, vec bool) {
	permuteRows(data, w, tw)
	colStages(data, w, h, tw, inverse, vec)
}

// permuteRows applies the bit-reversal permutation of tw to the rows of the
// w-wide row-major raster: row i trades places with row tw.rev[i]. Callers
// that produce the rows themselves write row i at tw.rev[i] instead and
// skip this pass.
func permuteRows(data []complex128, w int, tw *twiddles) {
	for i, r := range tw.rev {
		if int32(i) < r {
			a := data[i*w:][:w]
			b := data[int(r)*w:][:w]
			for c := range a {
				a[c], b[c] = b[c], a[c]
			}
		}
	}
}

// colStages runs the radix-2 stages of the length-h column transforms of the
// w x h row-major raster, whose rows must already be in bit-reversed order.
// The vector engine runs the stages two per sweep (fftRows2AVX, and
// fftRows1AVX for an odd final stage) over every column, the first stage
// and an odd last column (the Nyquist column of every half spectrum)
// included; the scalar engine runs the one-stage row loop of rowStages.
func colStages(data []complex128, w, h int, tw *twiddles, inverse, vec bool) {
	if h != tw.n || len(data) != w*h {
		panic(fmt.Sprintf("fft: %d values for %d columns of length %d (tables %d)", len(data), w, h, tw.n))
	}
	if h <= 1 {
		return
	}
	if !vec {
		tab := tw.fwd
		if inverse {
			tab = tw.inv
		}
		rowStages(data, w, h, tab)
		return
	}
	stg := tw.stgFwd
	if inverse {
		stg = tw.stgInv
	}
	half := 1
	for ; 4*half <= h; half <<= 2 {
		fftRows2AVX(&data[0], w, h, half, &stg[half-1])
	}
	if half < h {
		fftRows1AVX(&data[0], w, h, half, &stg[half-1])
	}
}

// rowStages runs every radix-2 stage, one sweep each, down the columns of
// the bit-reversed w x h raster, with transformWith's scalar butterfly
// applied across whole row pairs.
func rowStages(data []complex128, w, h int, tab []complex128) {
	for size := 2; size <= h; size <<= 1 {
		half := size >> 1
		step := h / size
		for start := 0; start < h; start += size {
			ti := 0
			for k := start; k < start+half; k++ {
				t := tab[ti]
				ra := data[k*w : (k+1)*w]
				rb := data[(k+half)*w : (k+half+1)*w]
				rb = rb[:len(ra)]
				for i, a := range ra {
					b := rb[i] * t
					ra[i] = a + b
					rb[i] = a - b
				}
				ti += step
			}
		}
	}
}
