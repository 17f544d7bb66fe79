// Package tensor provides the dense NCHW tensors and the matrix/convolution
// primitives (GEMM, im2col/col2im) underneath the neural-network layers of
// the printability predictor. Everything is float64. The matrix engine is
// the cache-blocked, panel-packed GEMM in gemm.go, which accumulates every
// output element in ascending-k order. The kernels are serial;
// batch-level parallelism lives in the callers.
package tensor

import (
	"fmt"
	"math"
)

// Tensor is a dense 4-D array in NCHW layout (batch, channels, height,
// width). Fully connected activations use H = W = 1. The zero Tensor is
// unusable; construct with New.
type Tensor struct {
	N, C, H, W int
	Data       []float64
}

// New returns a zero-filled tensor of the given shape.
func New(n, c, h, w int) *Tensor {
	if n <= 0 || c <= 0 || h <= 0 || w <= 0 {
		panic(fmt.Sprintf("tensor: invalid shape %dx%dx%dx%d", n, c, h, w))
	}
	return &Tensor{N: n, C: c, H: h, W: w, Data: make([]float64, n*c*h*w)}
}

// NewLike returns a zero tensor with t's shape.
func NewLike(t *Tensor) *Tensor { return New(t.N, t.C, t.H, t.W) }

// Ensure returns a tensor of the given shape, reusing t's backing storage
// when its capacity suffices (t may be nil). Contents are unspecified:
// callers either overwrite every element or call Zero explicitly. This is
// the cap-checked scratch primitive behind the zero-alloc layer caches in
// internal/nn.
func Ensure(t *Tensor, n, c, h, w int) *Tensor {
	size := n * c * h * w
	if t != nil && cap(t.Data) >= size {
		t.N, t.C, t.H, t.W = n, c, h, w
		t.Data = t.Data[:size]
		return t
	}
	return New(n, c, h, w)
}

// Len returns the element count.
func (t *Tensor) Len() int { return t.N * t.C * t.H * t.W }

// SameShape reports whether t and u have identical dimensions.
func (t *Tensor) SameShape(u *Tensor) bool {
	return t.N == u.N && t.C == u.C && t.H == u.H && t.W == u.W
}

// ShapeString renders the shape for error messages.
func (t *Tensor) ShapeString() string {
	return fmt.Sprintf("%dx%dx%dx%d", t.N, t.C, t.H, t.W)
}

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	out := NewLike(t)
	copy(out.Data, t.Data)
	return out
}

// At returns the element at (n, c, h, w); no bounds checking beyond the
// slice's own.
func (t *Tensor) At(n, c, h, w int) float64 {
	return t.Data[((n*t.C+c)*t.H+h)*t.W+w]
}

// Set writes the element at (n, c, h, w).
func (t *Tensor) Set(n, c, h, w int, v float64) {
	t.Data[((n*t.C+c)*t.H+h)*t.W+w] = v
}

// AddInto accumulates u into t element-wise.
func (t *Tensor) AddInto(u *Tensor) {
	if !t.SameShape(u) {
		panic(fmt.Sprintf("tensor: add shape mismatch %s vs %s", t.ShapeString(), u.ShapeString()))
	}
	for i := range t.Data {
		t.Data[i] += u.Data[i]
	}
}

// Scale multiplies all elements by k.
func (t *Tensor) Scale(k float64) {
	for i := range t.Data {
		t.Data[i] *= k
	}
}

// Zero clears all elements.
func (t *Tensor) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// MaxAbs returns the largest absolute element value.
func (t *Tensor) MaxAbs() float64 {
	m := 0.0
	for _, v := range t.Data {
		m = math.Max(m, math.Abs(v))
	}
	return m
}

// MatMul computes C = A x B for row-major matrices: A is m x k, B is k x n,
// out is m x n. out must not alias a or b. It runs the blocked/packed GEMM
// in gemm.go, which accumulates each output element in ascending-k order.
func MatMul(a []float64, m, k int, b []float64, n int, out []float64) {
	if len(a) < m*k || len(b) < k*n || len(out) < m*n {
		panic(fmt.Sprintf("tensor: matmul size mismatch m=%d k=%d n=%d (a=%d b=%d out=%d)",
			m, k, n, len(a), len(b), len(out)))
	}
	gemmPacked(a, false, m, k, b, n, out)
}

// MatMulATB computes out = A^T x B where A is k x m (so A^T is m x k) and B
// is k x n; out is m x n. Used for weight gradients and the conv input
// gradient (W^T x gradOut).
func MatMulATB(a []float64, k, m int, b []float64, n int, out []float64) {
	if len(a) < k*m || len(b) < k*n || len(out) < m*n {
		panic("tensor: matmulATB size mismatch")
	}
	gemmPacked(a, true, m, k, b, n, out)
}

// MatMulABT computes out = A x B^T where A is m x k and B is n x k; out is
// m x n. Used for convolution weight gradients (gradOut x col^T).
func MatMulABT(a []float64, m, k int, b []float64, n int, out []float64) {
	if len(a) < m*k || len(b) < n*k || len(out) < m*n {
		panic("tensor: matmulABT size mismatch")
	}
	gemmABT(a, m, k, b, n, out)
}

// ConvGeom describes one convolution geometry.
type ConvGeom struct {
	InC, InH, InW int
	K             int // square kernel edge
	Stride, Pad   int
}

// OutH returns the output height.
func (g ConvGeom) OutH() int { return (g.InH+2*g.Pad-g.K)/g.Stride + 1 }

// OutW returns the output width.
func (g ConvGeom) OutW() int { return (g.InW+2*g.Pad-g.K)/g.Stride + 1 }

// Im2Col expands one image (C x H x W, flat) into a column matrix of shape
// (C*K*K) x (OutH*OutW), row-major, so convolution becomes a matmul with the
// (OutC) x (C*K*K) weight matrix. Out-of-bounds taps read 0.
func Im2Col(img []float64, g ConvGeom, col []float64) {
	cols := g.OutH() * g.OutW()
	if len(img) < g.InC*g.InH*g.InW || len(col) < g.InC*g.K*g.K*cols {
		panic("tensor: im2col size mismatch")
	}
	im2colPanel(img, g, 0, 0, g.InC*g.K*g.K, cols, col)
}

// Im2ColBatch expands an n-image NCHW batch into one whole-batch column
// matrix of shape (C*K*K) x (n*OutH*OutW), row-major, with image b occupying
// columns [b*OutH*OutW, (b+1)*OutH*OutW). One GEMM against the weight matrix
// then convolves the entire batch.
func Im2ColBatch(imgs []float64, n int, g ConvGeom, col []float64) {
	cols := g.OutH() * g.OutW()
	imgLen := g.InC * g.InH * g.InW
	if len(imgs) < n*imgLen || len(col) < g.InC*g.K*g.K*n*cols {
		panic("tensor: im2col batch size mismatch")
	}
	im2colPanel(imgs, g, 0, 0, g.InC*g.K*g.K, n*cols, col)
}

// ConvPacked computes out = W x col, the convolution of the n-image NCHW
// batch imgs under g as one GEMM: col is the (InC*K*K) x (n*OutH*OutW)
// column matrix Im2ColBatch would build, and W is the m x (InC*K*K) weight
// matrix supplied already packed, so a constant left operand (a frozen
// layer's weights) is packed once instead of on every call. col itself is
// never built: the GEMM expands each of its cache-sized B panels straight
// from imgs. The packed layout cuts W's rows into 4-row strips, the last
// one holding the m mod 4 remainder rows when m is not a multiple of 4:
// strip s, with mr rows, occupies ap[4s*k : 4s*k+mr*k] and holds
// W[4s+r][kk] at ap[4s*k + kk*mr + r], with k = InC*K*K. out is m x
// (n*OutH*OutW), bit-identical to Im2ColBatch followed by MatMul on the
// unpacked matrix.
func ConvPacked(ap []float64, m int, imgs []float64, n int, g ConvGeom, out []float64) {
	k := g.InC * g.K * g.K
	cols := n * g.OutH() * g.OutW()
	if len(ap) < m*k || len(imgs) < n*g.InC*g.InH*g.InW || len(out) < m*cols {
		panic(fmt.Sprintf("tensor: packed conv size mismatch m=%d k=%d cols=%d (a=%d imgs=%d out=%d)",
			m, k, cols, len(ap), len(imgs), len(out)))
	}
	gemmPrepacked(ap, m, k, &bOperand{imgs: imgs, g: g}, cols, out)
}

// clipRange returns the half-open output range [lo, hi) whose input index
// ox*stride+off lands inside [0, inW); positions outside it read padding.
func clipRange(ow, stride, off, inW int) (int, int) {
	lo := 0
	if off < 0 {
		lo = (-off + stride - 1) / stride
	}
	hi := ow
	if last := inW - 1 - off; last < 0 {
		hi = 0
	} else if h := last/stride + 1; h < ow {
		hi = h
	}
	if lo > hi {
		lo = hi
	}
	return lo, hi
}

// zeroF clears a float slice (compiles to a memclr).
func zeroF(s []float64) {
	for i := range s {
		s[i] = 0
	}
}

// Col2Im scatters a column-matrix gradient back into image space, the adjoint
// of Im2Col. The image buffer is zeroed first.
func Col2Im(col []float64, g ConvGeom, img []float64) {
	cols := g.OutH() * g.OutW()
	if len(img) < g.InC*g.InH*g.InW || len(col) < g.InC*g.K*g.K*cols {
		panic("tensor: col2im size mismatch")
	}
	col2imStride(col, g, img, cols)
}

// Col2ImBatch scatters a whole-batch column-matrix gradient (the layout of
// Im2ColBatch) back into an n-image NCHW batch, the adjoint of Im2ColBatch.
// The image buffer is zeroed first.
func Col2ImBatch(col []float64, n int, g ConvGeom, imgs []float64) {
	cols := g.OutH() * g.OutW()
	imgLen := g.InC * g.InH * g.InW
	if len(imgs) < n*imgLen || len(col) < g.InC*g.K*g.K*n*cols {
		panic("tensor: col2im batch size mismatch")
	}
	for b := 0; b < n; b++ {
		col2imStride(col[b*cols:], g, imgs[b*imgLen:(b+1)*imgLen], n*cols)
	}
}

// col2imStride scatters one image's column block (rows rowStride apart)
// into img, zeroing img first.
func col2imStride(col []float64, g ConvGeom, img []float64, rowStride int) {
	oh, ow := g.OutH(), g.OutW()
	zeroF(img[:g.InC*g.InH*g.InW])
	row := 0
	for c := 0; c < g.InC; c++ {
		plane := img[c*g.InH*g.InW:]
		for ky := 0; ky < g.K; ky++ {
			for kx := 0; kx < g.K; kx++ {
				// Clipped positions contribute nothing; accumulate only the
				// in-bounds range, in the same ascending-ox order as before.
				oxLo, oxHi := clipRange(ow, g.Stride, kx-g.Pad, g.InW)
				src := col[row*rowStride:]
				i := 0
				for oy := 0; oy < oh; oy++ {
					iy := oy*g.Stride - g.Pad + ky
					if iy < 0 || iy >= g.InH {
						i += ow
						continue
					}
					ix := iy*g.InW + kx - g.Pad + oxLo*g.Stride
					for ox := oxLo; ox < oxHi; ox++ {
						plane[ix] += src[i+ox]
						ix += g.Stride
					}
					i += ow
				}
				row++
			}
		}
	}
}
