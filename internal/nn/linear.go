package nn

import (
	"fmt"
	"math/rand"

	"ldmo/internal/tensor"
)

// Linear is a fully connected layer over the flattened C*H*W features of its
// input. Its output has shape N x Out x 1 x 1. Both passes are single GEMM
// calls over the whole batch, with cached buffers so they are
// allocation-free at steady state.
type Linear struct {
	In, Out int

	weight *Param // Out x In
	bias   *Param // Out

	in  *tensor.Tensor
	out *tensor.Tensor
	gin *tensor.Tensor
	dw  []float64 // per-pass dW before accumulation into weight.Grad
}

// NewLinear builds a fully connected layer with He-initialized weights.
func NewLinear(rng *rand.Rand, in, out int) *Linear {
	if in <= 0 || out <= 0 {
		panic(fmt.Sprintf("nn: invalid linear %d->%d", in, out))
	}
	l := &Linear{In: in, Out: out}
	l.weight = newLazyParam("linear.weight", out*in)
	heInit(rng, l.weight.Data, in)
	l.bias = newLazyParam("linear.bias", out)
	return l
}

// Forward implements Layer.
func (l *Linear) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	feat := x.C * x.H * x.W
	if feat != l.In {
		panic(fmt.Sprintf("nn: linear expects %d features, got %s", l.In, x.ShapeString()))
	}
	l.in = x
	l.out = tensor.Ensure(l.out, x.N, l.Out, 1, 1)
	// out[n,o] = sum_i x[n,i] * W[o,i]: one A x B^T over the batch.
	tensor.MatMulABT(x.Data, x.N, l.In, l.weight.Data, l.Out, l.out.Data)
	for n := 0; n < x.N; n++ {
		row := l.out.Data[n*l.Out : (n+1)*l.Out]
		for o, b := range l.bias.Data {
			row[o] += b
		}
	}
	return l.out
}

// Backward implements Layer.
func (l *Linear) Backward(grad *tensor.Tensor) *tensor.Tensor {
	x := l.in
	// db[o] = sum_n g[n,o], ascending n.
	for o := 0; o < l.Out; o++ {
		s := 0.0
		for n := 0; n < x.N; n++ {
			s += grad.Data[n*l.Out+o]
		}
		l.bias.Grad[o] += s
	}
	// dW[o,i] = sum_n g[n,o] * x[n,i]: grad^T x input in one GEMM.
	l.dw = ensureF(l.dw, l.Out*l.In)
	tensor.MatMulATB(grad.Data, x.N, l.Out, x.Data, l.In, l.dw)
	for i, g := range l.dw {
		l.weight.Grad[i] += g
	}
	// dx[n,i] = sum_o g[n,o] * W[o,i]: grad x W in one GEMM.
	l.gin = tensor.Ensure(l.gin, x.N, x.C, x.H, x.W)
	tensor.MatMul(grad.Data, x.N, l.Out, l.weight.Data, l.In, l.gin.Data)
	return l.gin
}

// Params implements Layer.
func (l *Linear) Params() []*Param { return []*Param{l.weight, l.bias} }
