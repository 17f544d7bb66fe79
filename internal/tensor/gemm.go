// Blocked, panel-packed GEMM kernels — the compute core under every conv and
// linear layer. The engine packs A once into 4-row strips (or takes it
// pre-packed, see ConvPacked), fills B cache-sized panel by panel (pooled,
// size-keyed scratch — see scratch.go) either by copying them out of a
// row-major matrix or by expanding them straight from a conv's NCHW input,
// and runs a register-tiled micro-kernel over fixed-order strips.
//
// Determinism is part of the kernel contract, exactly as for the spectral
// engine: every output element accumulates its k-products in ascending-k
// order regardless of blocking or packing, so the blocked engine is
// bit-identical to the naive ikj loops the package started with (kept in
// the tests as the reference, with go test -bench A/B benchmarks) on finite
// inputs.
package tensor

// Blocking parameters. kc*nc*8 bytes of packed B (~1 MiB) sits in L2 across
// a whole row sweep; each 4-row A strip panel (4*kc*8 = 8 KiB) stays in L1
// for the duration of its micro-kernel call.
const (
	blockKC = 256 // shared dimension per panel
	blockNC = 512 // columns of B packed per panel
)

// bOperand is the k x n right operand of the blocked driver: the row-major
// matrix b, or, when imgs is set, the whole-batch column matrix
// Im2ColBatch would build from the NCHW batch imgs under geometry g.
type bOperand struct {
	b    []float64
	imgs []float64
	g    ConvGeom
}

// fill writes the operand's kc x nc panel starting at (pc, jc) into dst,
// row-major.
func (o *bOperand) fill(n, pc, jc, kc, nc int, dst []float64) {
	if o.imgs == nil {
		packB(o.b, n, pc, jc, kc, nc, dst)
		return
	}
	im2colPanel(o.imgs, o.g, pc, jc, kc, nc, dst)
}

// packB copies the kc x nc panel of row-major b (full width n) starting at
// (pc, jc) into contiguous dst, row-major.
func packB(b []float64, n, pc, jc, kc, nc int, dst []float64) {
	for kk := 0; kk < kc; kk++ {
		copy(dst[kk*nc:(kk+1)*nc], b[(pc+kk)*n+jc:(pc+kk)*n+jc+nc])
	}
}

// im2colPanel writes the kc x nc panel starting at (pc, jc) of the
// whole-batch column matrix of the NCHW batch imgs into dst, row-major:
// panel row kk is the kernel tap (c, ky, kx) numbered pc+kk, panel column j
// the output position (image, oy, ox) numbered jc+j, and out-of-bounds
// taps read 0. Im2ColBatch writes the whole matrix as one panel; the
// blocked GEMM fills its B panels one at a time without the matrix. Each
// tap's x-padding clip is hoisted, so a run of positions along one output
// row is a copy at stride 1 and the clipped fringes are cleared.
func im2colPanel(imgs []float64, g ConvGeom, pc, jc, kc, nc int, dst []float64) {
	oh, ow := g.OutH(), g.OutW()
	plane := g.InH * g.InW
	imgLen := g.InC * plane
	taps := g.K * g.K
	c, ky, kx := pc/taps, pc%taps/g.K, pc%g.K
	img0, p0 := jc/(oh*ow), jc%(oh*ow)
	oy0, ox0 := p0/ow, p0%ow
	for kk := 0; kk < kc; kk++ {
		oxLo, oxHi := clipRange(ow, g.Stride, kx-g.Pad, g.InW)
		row := dst[kk*nc : (kk+1)*nc]
		img, oy, ox := img0, oy0, ox0
		for i := 0; i < nc; {
			seg := row[i : i+min(ow-ox, nc-i)]
			if iy := oy*g.Stride - g.Pad + ky; iy < 0 || iy >= g.InH {
				clear(seg)
			} else {
				lo := min(max(oxLo-ox, 0), len(seg))
				hi := min(max(oxHi-ox, lo), len(seg))
				clear(seg[:lo])
				src := imgs[img*imgLen+c*plane+iy*g.InW+kx-g.Pad+(ox+lo)*g.Stride:]
				if g.Stride == 1 {
					copy(seg[lo:hi], src)
				} else {
					for j := range seg[lo:hi] {
						seg[lo+j] = src[j*g.Stride]
					}
				}
				clear(seg[hi:])
			}
			i += len(seg)
			ox = 0
			if oy++; oy == oh {
				oy, img = 0, img+1
			}
		}
		if kx++; kx == g.K {
			kx, ky = 0, ky+1
			if ky == g.K {
				ky, c = 0, c+1
			}
		}
	}
}

// packA writes the m x k matrix A into dst (len m*k) in the strip-interleaved
// layout ConvPacked documents: strip s (rows 4s.., mr = min(4, m-4s) of
// them) occupies dst[4s*k : 4s*k+mr*k] and holds A[4s+r][kk] at offset
// kk*mr + r, so a kc-deep panel starting at column pc is the contiguous run
// from offset pc*mr. A is row-major m x k, or stored k x m and read
// transposed when transA is set.
func packA(a []float64, transA bool, m, k int, dst []float64) {
	for i0 := 0; i0 < m; i0 += 4 {
		mr := min(4, m-i0)
		strip := dst[i0*k : i0*k+mr*k]
		if transA {
			for kk := 0; kk < k; kk++ {
				copy(strip[kk*mr:kk*mr+mr], a[kk*m+i0:kk*m+i0+mr])
			}
			continue
		}
		for r := 0; r < mr; r++ {
			for kk, v := range a[(i0+r)*k : (i0+r+1)*k] {
				strip[kk*mr+r] = v
			}
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

// kern4Strip runs the full-width 4-row strip on the widest register tile
// the host runs: 4x16 in ZMM registers with AVX-512F, 4x8 in YMM registers
// with AVX, else the Go kernel. All three accumulate each element in
// ascending-k order with scalar mul-then-add rounding, so they are
// bit-identical.
func kern4Strip(apack []float64, kc int, bpack []float64, nc int, c0, c1, c2, c3 []float64) {
	switch {
	case haveAVX512:
		kern4x16AVX512(&apack[0], &bpack[0], &c0[0], &c1[0], &c2[0], &c3[0], kc, nc)
	case haveAVX:
		kern4x8AVX(&apack[0], &bpack[0], &c0[0], &c1[0], &c2[0], &c3[0], kc, nc)
	default:
		kern4(apack, kc, bpack, nc, c0, c1, c2, c3)
	}
}

// kernN is the remainder kernel for 1..3 packed rows; row r of C starts at
// c[r*ldc].
func kernN(apack []float64, kc, mr int, bpack []float64, nc int, c []float64, ldc int) {
	for kk := 0; kk < kc; kk++ {
		brow := bpack[kk*nc : kk*nc+nc]
		for r := 0; r < mr; r++ {
			ar := apack[kk*mr+r]
			crow := c[r*ldc : r*ldc+nc]
			for j, bj := range brow {
				crow[j] += ar * bj
			}
		}
	}
}

// gemmPacked computes out = A x B (A^T x B when transA is set, with A stored
// k x m): it packs A once into pooled scratch and runs the blocked driver.
func gemmPacked(a []float64, transA bool, m, k int, b []float64, n int, out []float64) {
	abuf := getBuf(m * k)
	ap := (*abuf)[:m*k]
	packA(a, transA, m, k, ap)
	gemmPrepacked(ap, m, k, &bOperand{b: b}, n, out)
	putBuf(abuf)
}

// gemmPrepacked is the blocked driver for out = A x B with A in packA's
// layout and B the k x n operand src. out is m x n row-major and is zeroed
// here; panels are processed in ascending jc, pc order and rows in
// ascending strips, so accumulation per element is ascending-k.
func gemmPrepacked(ap []float64, m, k int, src *bOperand, n int, out []float64) {
	clear(out[:m*n])
	bbuf := getBuf(blockKC * blockNC)
	bpack := (*bbuf)[:blockKC*blockNC]
	for jc := 0; jc < n; jc += blockNC {
		nc := min(blockNC, n-jc)
		for pc := 0; pc < k; pc += blockKC {
			kc := min(blockKC, k-pc)
			src.fill(n, pc, jc, kc, nc, bpack)
			for i0 := 0; i0 < m; i0 += 4 {
				mr := min(4, m-i0)
				apanel := ap[i0*k+pc*mr : i0*k+(pc+kc)*mr]
				c := out[i0*n+jc:]
				if mr == 4 {
					kern4Strip(apanel, kc, bpack, nc, c[:nc], c[n:n+nc], c[2*n:2*n+nc], c[3*n:3*n+nc])
				} else {
					kernN(apanel, kc, mr, bpack, nc, c, n)
				}
			}
		}
	}
	putBuf(bbuf)
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
