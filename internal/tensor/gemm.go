// Blocked, panel-packed GEMM kernels — the compute core under every conv and
// linear layer. The engine blocks the operands into cache-sized panels,
// packs them into contiguous scratch (pooled, size-keyed — see scratch.go),
// and runs a register-tiled micro-kernel over fixed-order strips.
//
// Determinism is part of the kernel contract, exactly as for the spectral
// engine: every output element accumulates its k-products in ascending-k
// order regardless of blocking, packing, or row-parallel sharding, so the
// blocked engine is bit-identical to the naive ikj loops the package started
// with (kept in the tests as the reference, with go test -bench A/B
// benchmarks) on finite inputs, and bit-identical to itself at any worker
// count.
package tensor

import "ldmo/internal/par"

// Blocking parameters. kc*nc*8 bytes of packed B (~1 MiB) sits in L2 across
// a whole row sweep; each 4-row packed A strip (4*kc*8 = 8 KiB) stays in L1
// for the duration of its micro-kernel call.
const (
	blockMC = 64  // rows of A packed per panel
	blockKC = 256 // shared dimension per panel
	blockNC = 512 // columns of B packed per panel
)

// gemmWorkers is the row-parallel lane count for the blocked drivers;
// 1 (the default) keeps them serial. Shards are fixed contiguous strip
// ranges and every element's accumulation order is worker-independent, so
// serial and parallel results are bit-identical.
var gemmWorkers = 1

// SetWorkers sets the row-parallel lane count of the blocked GEMM drivers
// (n <= 1 forces serial). Parallel output is bit-identical to serial: lanes
// own disjoint 4-row output strips in fixed order and share only the
// read-only packed B panel.
func SetWorkers(n int) {
	if n < 1 {
		n = 1
	}
	gemmWorkers = n
}

// packB copies the kc x nc panel of row-major b (full width n) starting at
// (pc, jc) into contiguous dst, row-major.
func packB(b []float64, n, pc, jc, kc, nc int, dst []float64) {
	for kk := 0; kk < kc; kk++ {
		copy(dst[kk*nc:(kk+1)*nc], b[(pc+kk)*n+jc:(pc+kk)*n+jc+nc])
	}
}

// packA interleaves an mr-row strip of A (row-major, leading dimension lda)
// starting at row i0, columns [pc, pc+kc), into dst so the micro-kernel
// reads dst[kk*mr+r] sequentially.
func packA(a []float64, lda, i0, pc, kc, mr int, dst []float64) {
	for r := 0; r < mr; r++ {
		row := a[(i0+r)*lda+pc:]
		for kk := 0; kk < kc; kk++ {
			dst[kk*mr+r] = row[kk]
		}
	}
}

// packAT is packA for a transposed operand: the logical A (m x k) is stored
// as a k x m row-major matrix and read a[kk*lda + i]. Same packed layout.
func packAT(a []float64, lda, i0, pc, kc, mr int, dst []float64) {
	for kk := 0; kk < kc; kk++ {
		src := a[(pc+kk)*lda+i0:]
		for r := 0; r < mr; r++ {
			dst[kk*mr+r] = src[r]
		}
	}
}

// kern4 accumulates a 4-row by nc-column strip: c[r][j] += sum_kk
// apack[kk*4+r] * bpack[kk*nc+j]. kk is the middle loop, so each output
// element sees ascending-k accumulation — the determinism contract.
func kern4(apack []float64, kc int, bpack []float64, nc int, c0, c1, c2, c3 []float64) {
	c0 = c0[:nc]
	c1 = c1[:nc]
	c2 = c2[:nc]
	c3 = c3[:nc]
	for kk := 0; kk < kc; kk++ {
		a0 := apack[kk*4]
		a1 := apack[kk*4+1]
		a2 := apack[kk*4+2]
		a3 := apack[kk*4+3]
		brow := bpack[kk*nc : kk*nc+nc]
		for j, bj := range brow {
			c0[j] += a0 * bj
			c1[j] += a1 * bj
			c2[j] += a2 * bj
			c3[j] += a3 * bj
		}
	}
}

// kern4Tail finishes the 1..3 column tail the vectorized kernel leaves
// behind, columns [j0, nc), with the same per-element ascending-k order.
func kern4Tail(apack []float64, kc int, bpack []float64, nc, j0 int, c0, c1, c2, c3 []float64) {
	for kk := 0; kk < kc; kk++ {
		a0 := apack[kk*4]
		a1 := apack[kk*4+1]
		a2 := apack[kk*4+2]
		a3 := apack[kk*4+3]
		brow := bpack[kk*nc : kk*nc+nc]
		for j := j0; j < nc; j++ {
			bj := brow[j]
			c0[j] += a0 * bj
			c1[j] += a1 * bj
			c2[j] += a2 * bj
			c3[j] += a3 * bj
		}
	}
}

// kern4Strip runs the full-width 4-row strip, vectorized when the host has
// AVX. Both paths accumulate each element in ascending-k order with scalar
// mul-then-add rounding, so they are bit-identical.
func kern4Strip(apack []float64, kc int, bpack []float64, nc int, c0, c1, c2, c3 []float64) {
	vec := nc &^ 3
	if haveAVX && vec > 0 {
		kern4AVX(&apack[0], &bpack[0], &c0[0], &c1[0], &c2[0], &c3[0], kc, vec*8, nc*8)
		if vec < nc {
			kern4Tail(apack, kc, bpack, nc, vec, c0, c1, c2, c3)
		}
		return
	}
	kern4(apack, kc, bpack, nc, c0, c1, c2, c3)
}

// kernN is the remainder kernel for 1..3 packed rows.
func kernN(apack []float64, kc, mr int, bpack []float64, nc int, c [][]float64) {
	for kk := 0; kk < kc; kk++ {
		brow := bpack[kk*nc : kk*nc+nc]
		for r := 0; r < mr; r++ {
			ar := apack[kk*mr+r]
			crow := c[r][:nc]
			for j, bj := range brow {
				crow[j] += ar * bj
			}
		}
	}
}

// gemmPacked is the shared blocked driver for out = A x B (and A^T x B when
// transA is set, with A stored k x m). out is m x n row-major and is zeroed
// here; panels are processed in ascending jc, pc order and rows in ascending
// strips, so accumulation per element is ascending-k.
func gemmPacked(a []float64, transA bool, m, k int, b []float64, n int, out []float64) {
	for i := 0; i < m*n; i++ {
		out[i] = 0
	}
	lda := k
	if transA {
		lda = m
	}
	bbuf := getBuf(blockKC * blockNC)
	bpack := (*bbuf)[:blockKC*blockNC]
	abuf := getBuf(4 * blockKC)
	apack := (*abuf)[:4*blockKC]
	workers := gemmWorkers
	strips := (m + 3) / 4
	for jc := 0; jc < n; jc += blockNC {
		nc := min(blockNC, n-jc)
		for pc := 0; pc < k; pc += blockKC {
			kc := min(blockKC, k-pc)
			packB(b, n, pc, jc, kc, nc, bpack)
			if workers > 1 && strips > 1 {
				runPanelParallel(a, transA, lda, m, n, pc, kc, jc, nc, bpack, out, workers, strips)
			} else {
				for s := 0; s < strips; s++ {
					runStrip(a, transA, lda, m, n, pc, kc, jc, nc, bpack, apack, out, s)
				}
			}
		}
	}
	putBuf(abuf)
	putBuf(bbuf)
}

// runStrip packs one 4-row (or remainder) strip of A for the current panel
// and runs the micro-kernel into its out rows.
func runStrip(a []float64, transA bool, lda, m, n, pc, kc, jc, nc int, bpack, apack, out []float64, s int) {
	i0 := s * 4
	mr := min(4, m-i0)
	if transA {
		packAT(a, lda, i0, pc, kc, mr, apack)
	} else {
		packA(a, lda, i0, pc, kc, mr, apack)
	}
	if mr == 4 {
		kern4Strip(apack, kc, bpack, nc,
			out[i0*n+jc:i0*n+jc+nc], out[(i0+1)*n+jc:(i0+1)*n+jc+nc],
			out[(i0+2)*n+jc:(i0+2)*n+jc+nc], out[(i0+3)*n+jc:(i0+3)*n+jc+nc])
	} else {
		var rows [3][]float64
		for r := 0; r < mr; r++ {
			rows[r] = out[(i0+r)*n+jc:]
		}
		kernN(apack, kc, mr, bpack, nc, rows[:mr])
	}
}

// runPanelParallel shards one packed panel's strips over a worker pool in
// fixed order: lane l owns strips l, l+w, l+2w, … Each strip writes only its
// own out rows; bpack is shared read-only, apack is per-lane, and every
// element's accumulation order is identical to the serial sweep.
func runPanelParallel(a []float64, transA bool, lda, m, n, pc, kc, jc, nc int, bpack, out []float64, workers, strips int) {
	pool := par.NewPool(min(workers, strips))
	abufs := make([]*[]float64, pool.Size())
	for l := range abufs {
		abufs[l] = getBuf(4 * blockKC)
	}
	pool.Map(strips, func(worker, s int) {
		runStrip(a, transA, lda, m, n, pc, kc, jc, nc, bpack, (*abufs[worker])[:4*blockKC], out, s)
	})
	for _, ab := range abufs {
		putBuf(ab)
	}
}

// gemmABT computes out = A x B^T (A m x k, B n x k, out m x n) with a
// register-tiled 4x4 dot micro-kernel: both operands stream sequentially
// along k, the tile quadruples reuse of each loaded row, and every output
// element is a single ascending-k dot product — the exact order of the
// naive reference.
func gemmABT(a []float64, m, k int, b []float64, n int, out []float64) {
	if haveAVX && k > 0 && m >= 4 && n >= 4 {
		gemmABTAVX(a, m, k, b, n, out)
		return
	}
	gemmABTGo(a, m, k, b, n, out)
}

// gemmABTAVX runs the A x B^T tiles through dot4x4AVX: four B rows are
// interleaved into a pooled panel (bpack[kk*4+s] = B[j0+s][kk]) so one
// vector load per kk serves four output columns; accumulators live in
// registers across the entire k extent, preserving the single ascending-k
// dot per element. Row and column remainders fall back to scalar dots.
func gemmABTAVX(a []float64, m, k int, b []float64, n int, out []float64) {
	bbuf := getBuf(4 * k)
	bp := (*bbuf)[:4*k]
	j := 0
	for ; j+4 <= n; j += 4 {
		for r := 0; r < 4; r++ {
			row := b[(j+r)*k : (j+r)*k+k]
			for kk, bv := range row {
				bp[kk*4+r] = bv
			}
		}
		i := 0
		for ; i+4 <= m; i += 4 {
			dot4x4AVX(&a[i*k], &a[(i+1)*k], &a[(i+2)*k], &a[(i+3)*k], &bp[0], k,
				&out[i*n+j], &out[(i+1)*n+j], &out[(i+2)*n+j], &out[(i+3)*n+j])
		}
		for ; i < m; i++ {
			arow := a[i*k : i*k+k]
			var c0, c1, c2, c3 float64
			for kk, av := range arow {
				c0 += av * bp[kk*4]
				c1 += av * bp[kk*4+1]
				c2 += av * bp[kk*4+2]
				c3 += av * bp[kk*4+3]
			}
			out[i*n+j], out[i*n+j+1], out[i*n+j+2], out[i*n+j+3] = c0, c1, c2, c3
		}
	}
	putBuf(bbuf)
	for ; j < n; j++ {
		brow := b[j*k : j*k+k]
		for i := 0; i < m; i++ {
			arow := a[i*k : i*k+k]
			s := 0.0
			for kk, bv := range brow {
				s += arow[kk] * bv
			}
			out[i*n+j] = s
		}
	}
}

// gemmABTGo is the portable register-tiled A x B^T kernel.
func gemmABTGo(a []float64, m, k int, b []float64, n int, out []float64) {
	i := 0
	for ; i+4 <= m; i += 4 {
		a0 := a[i*k : i*k+k]
		a1 := a[(i+1)*k : (i+1)*k+k]
		a2 := a[(i+2)*k : (i+2)*k+k]
		a3 := a[(i+3)*k : (i+3)*k+k]
		j := 0
		for ; j+4 <= n; j += 4 {
			b0 := b[j*k : j*k+k]
			b1 := b[(j+1)*k : (j+1)*k+k]
			b2 := b[(j+2)*k : (j+2)*k+k]
			b3 := b[(j+3)*k : (j+3)*k+k]
			var c00, c01, c02, c03, c10, c11, c12, c13 float64
			var c20, c21, c22, c23, c30, c31, c32, c33 float64
			for kk := 0; kk < k; kk++ {
				av0, av1, av2, av3 := a0[kk], a1[kk], a2[kk], a3[kk]
				bv0, bv1, bv2, bv3 := b0[kk], b1[kk], b2[kk], b3[kk]
				c00 += av0 * bv0
				c01 += av0 * bv1
				c02 += av0 * bv2
				c03 += av0 * bv3
				c10 += av1 * bv0
				c11 += av1 * bv1
				c12 += av1 * bv2
				c13 += av1 * bv3
				c20 += av2 * bv0
				c21 += av2 * bv1
				c22 += av2 * bv2
				c23 += av2 * bv3
				c30 += av3 * bv0
				c31 += av3 * bv1
				c32 += av3 * bv2
				c33 += av3 * bv3
			}
			out[i*n+j], out[i*n+j+1], out[i*n+j+2], out[i*n+j+3] = c00, c01, c02, c03
			out[(i+1)*n+j], out[(i+1)*n+j+1], out[(i+1)*n+j+2], out[(i+1)*n+j+3] = c10, c11, c12, c13
			out[(i+2)*n+j], out[(i+2)*n+j+1], out[(i+2)*n+j+2], out[(i+2)*n+j+3] = c20, c21, c22, c23
			out[(i+3)*n+j], out[(i+3)*n+j+1], out[(i+3)*n+j+2], out[(i+3)*n+j+3] = c30, c31, c32, c33
		}
		for ; j < n; j++ {
			brow := b[j*k : j*k+k]
			var c0, c1, c2, c3 float64
			for kk, bv := range brow {
				c0 += a0[kk] * bv
				c1 += a1[kk] * bv
				c2 += a2[kk] * bv
				c3 += a3[kk] * bv
			}
			out[i*n+j], out[(i+1)*n+j], out[(i+2)*n+j], out[(i+3)*n+j] = c0, c1, c2, c3
		}
	}
	for ; i < m; i++ {
		arow := a[i*k : i*k+k]
		orow := out[i*n : i*n+n]
		for j := 0; j < n; j++ {
			brow := b[j*k : j*k+k]
			s := 0.0
			for kk, bv := range brow {
				s += arow[kk] * bv
			}
			orow[j] = s
		}
	}
}
