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
// vec selects the AVX butterfly kernel for the stages wide enough to
// vectorize; either way the result is bit-identical (finite inputs).
func transformWith(x []complex128, tw *twiddles, inverse, vec bool) {
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
	stg := tw.stgFwd
	if inverse {
		tab, stg = tw.inv, tw.stgInv
	}
	if vec && n >= 4 {
		// First stage (half = 1): single-butterfly blocks with the lone
		// twiddle tab[0] — too narrow for a two-complex vector, kept as the
		// exact scalar expression.
		for k := 0; k < n; k += 2 {
			a := x[k]
			b := x[k+1] * tab[0]
			x[k] = a + b
			x[k+1] = a - b
		}
		// Every remaining stage is whole 32-byte vectors: the stage's
		// twiddles sit contiguous at stg[half-1] (see stageLayout).
		for size := 4; size <= n; size <<= 1 {
			half := size >> 1
			fftStageAVX(&x[0], n, half, &stg[half-1])
		}
		return
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

// colBlock is how many columns the column transforms gather per pass.
// Walking the raster row-wise in strips of colBlock columns keeps the
// gather/scatter sequential in memory instead of striding the full row
// width once per column.
const colBlock = 8

// transformCols transforms every column of the w x h raster in place using
// the length-h tables, processing as many columns per pass as the strip
// scratch holds. The per-column results are independent of the blocking
// factor. No normalization is applied.
func transformCols(data []complex128, w, h int, tw *twiddles, inverse bool, col []complex128, vec bool) {
	if len(col) < h {
		panic(fmt.Sprintf("fft: column scratch %d < %d", len(col), h))
	}
	nb := len(col) / h
	if nb > w {
		nb = w
	}
	for x0 := 0; x0 < w; x0 += nb {
		b := nb
		if x0+b > w {
			b = w - x0
		}
		blk := col[:b*h]
		for y := 0; y < h; y++ {
			row := data[y*w+x0 : y*w+x0+b]
			for j, v := range row {
				blk[j*h+y] = v
			}
		}
		for j := 0; j < b; j++ {
			transformWith(blk[j*h:(j+1)*h], tw, inverse, vec)
		}
		for y := 0; y < h; y++ {
			row := data[y*w+x0 : y*w+x0+b]
			for j := range row {
				row[j] = blk[j*h+y]
			}
		}
	}
}
