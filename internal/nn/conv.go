package nn

import (
	"fmt"
	"math/rand"

	"ldmo/internal/tensor"
)

// Conv2D is a square-kernel 2-D convolution implemented as whole-batch
// im2col + one GEMM per pass: the column matrix holds every image's
// expansion side by side ((InC*K*K) x (N*OH*OW)), so each forward is a
// single weight x columns product instead of N small ones, and each
// backward is one A x B^T for dW plus one A^T x B for the column gradient.
// ResNet-style convolutions carry no bias (batch norm follows them); set
// withBias for standalone use.
//
// All working buffers (column matrix, GEMM output, activations, gradients)
// are cached on the layer and reused, so Forward and Backward are
// allocation-free at steady state. A frozen conv (see Network.Freeze) runs
// Forward only, builds no column matrix (tensor.ConvPacked expands each
// GEMM panel straight from the input) and keeps no buffer of its own: it
// writes its lane's arena, and a ReLU fused into it runs in its output
// pass.
type Conv2D struct {
	InC, OutC, K, Stride, Pad int

	weight *Param    // OutC x (InC*K*K); tensor.ConvPacked's layout when frozen
	bias   *Param    // OutC, optional
	frozen bool      // inference-only: packed weights, no column matrix
	relu   bool      // frozen only: a ReLU fused into the output pass
	dst    arenaSlot // frozen only: where the output goes

	// cached working set, grown once to steady-state size
	in      *tensor.Tensor
	geom    tensor.ConvGeom
	col     []float64 // (InC*K*K) x (N*OH*OW) whole-batch column matrix
	gemmOut []float64 // OutC x (N*OH*OW) forward product, pre-permute
	gbuf    []float64 // OutC x (N*OH*OW) permuted output gradient
	gcol    []float64 // column-space gradient
	gradW   []float64 // per-pass dW before accumulation into weight.Grad
	out     *tensor.Tensor
	gin     *tensor.Tensor
}

// NewConv2D builds a convolution layer with He-initialized weights.
func NewConv2D(rng *rand.Rand, inC, outC, k, stride, pad int, withBias bool) *Conv2D {
	if inC <= 0 || outC <= 0 || k <= 0 || stride <= 0 || pad < 0 {
		panic(fmt.Sprintf("nn: invalid conv %d->%d k%d s%d p%d", inC, outC, k, stride, pad))
	}
	c := &Conv2D{InC: inC, OutC: outC, K: k, Stride: stride, Pad: pad}
	c.weight = newLazyParam("conv.weight", outC*inC*k*k)
	heInit(rng, c.weight.Data, inC*k*k)
	if withBias {
		c.bias = newLazyParam("conv.bias", outC)
	}
	return c
}

// Forward implements Layer.
func (c *Conv2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.C != c.InC {
		panic(fmt.Sprintf("nn: conv expects %d channels, got %s", c.InC, x.ShapeString()))
	}
	c.geom = tensor.ConvGeom{InC: c.InC, InH: x.H, InW: x.W, K: c.K, Stride: c.Stride, Pad: c.Pad}
	oh, ow := c.geom.OutH(), c.geom.OutW()
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("nn: conv output empty for input %s", x.ShapeString()))
	}
	if c.frozen {
		return c.forwardFrozen(x, oh, ow)
	}
	c.in = x
	ck := c.InC * c.K * c.K
	bcols := x.N * oh * ow
	c.gemmOut = ensureF(c.gemmOut, c.OutC*bcols)
	c.col = ensureF(c.col, ck*bcols)
	tensor.Im2ColBatch(x.Data, x.N, c.geom, c.col)
	tensor.MatMul(c.weight.Data, c.OutC, ck, c.col, bcols, c.gemmOut)
	c.out = tensor.Ensure(c.out, x.N, c.OutC, oh, ow)
	c.outputPass(c.gemmOut, c.out.Data, x.N, oh*ow)
	return c.out
}

// forwardFrozen runs the packed GEMM into the lane's arena. One image's
// OutC x (OH*OW) product is already its NCHW output, so the GEMM writes the
// output slot and the output pass runs in place; a batch's product goes
// through the arena's conv-product buffer and is permuted into the slot.
func (c *Conv2D) forwardFrozen(x *tensor.Tensor, oh, ow int) *tensor.Tensor {
	out := c.dst.get(x.N, c.OutC, oh, ow)
	prod := out.Data
	if x.N > 1 {
		c.dst.a.prod = ensureF(c.dst.a.prod, out.Len())
		prod = c.dst.a.prod
	}
	tensor.ConvPacked(c.weight.Data, c.OutC, x.Data, x.N, c.geom, prod)
	c.outputPass(prod, out.Data, x.N, oh*ow)
	return out
}

// outputPass permutes the OutC x (n*cols) GEMM product src into the NCHW
// output dst, adding each channel's bias and then, for a fused ReLU,
// computing v > 0 ? v : 0 — the frozen ReLU's own test, so ±0 and NaN map
// exactly as there. With n == 1 the permutation is the identity and src
// may be dst.
func (c *Conv2D) outputPass(src, dst []float64, n, cols int) {
	bcols := n * cols
	outLen := c.OutC * cols
	for oc := 0; oc < c.OutC; oc++ {
		b := 0.0
		if c.bias != nil {
			b = c.bias.Data[oc]
		}
		row := src[oc*bcols : (oc+1)*bcols]
		for img := 0; img < n; img++ {
			d := dst[img*outLen+oc*cols : img*outLen+(oc+1)*cols]
			s := row[img*cols : (img+1)*cols]
			switch {
			case c.relu:
				for i, v := range s {
					if v += b; v > 0 {
						d[i] = v
					} else {
						d[i] = 0
					}
				}
			case c.bias != nil:
				for i, v := range s {
					d[i] = v + b
				}
			default:
				copy(d, s)
			}
		}
	}
}

// Backward implements Layer.
func (c *Conv2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if c.frozen {
		panic("nn: Backward through a frozen conv")
	}
	x := c.in
	oh, ow := c.geom.OutH(), c.geom.OutW()
	cols := oh * ow
	ck := c.InC * c.K * c.K
	bcols := x.N * cols
	outLen := c.OutC * cols

	// Permute the NCHW output gradient to OutC x (N*cols) to match the
	// column matrix, then take both backward products in one GEMM each.
	c.gbuf = ensureF(c.gbuf, c.OutC*bcols)
	for oc := 0; oc < c.OutC; oc++ {
		dst := c.gbuf[oc*bcols : (oc+1)*bcols]
		for n := 0; n < x.N; n++ {
			copy(dst[n*cols:(n+1)*cols], grad.Data[n*outLen+oc*cols:n*outLen+(oc+1)*cols])
		}
	}

	// dW = gradOut x col^T over the whole batch at once.
	c.gradW = ensureF(c.gradW, len(c.weight.Data))
	tensor.MatMulABT(c.gbuf, c.OutC, bcols, c.col, ck, c.gradW)
	for i, g := range c.gradW {
		c.weight.Grad[i] += g
	}

	// dCol = W^T x gradOut, scattered back to image space per batch item.
	c.gcol = ensureF(c.gcol, ck*bcols)
	tensor.MatMulATB(c.weight.Data, c.OutC, ck, c.gbuf, bcols, c.gcol)
	c.gin = tensor.Ensure(c.gin, x.N, x.C, x.H, x.W)
	tensor.Col2ImBatch(c.gcol, x.N, c.geom, c.gin.Data)

	if c.bias != nil {
		for oc := 0; oc < c.OutC; oc++ {
			s := 0.0
			row := c.gbuf[oc*bcols : (oc+1)*bcols]
			for _, g := range row {
				s += g
			}
			c.bias.Grad[oc] += s
		}
	}
	return c.gin
}

// Params implements Layer.
func (c *Conv2D) Params() []*Param {
	if c.bias != nil {
		return []*Param{c.weight, c.bias}
	}
	return []*Param{c.weight}
}
