package nn

import (
	"math/rand"

	"ldmo/internal/tensor"
)

// BasicBlock is the ResNet-18 residual unit: two 3x3 conv+BN stages with an
// identity (or 1x1-conv downsample) skip connection and ReLU activations.
// The batch-norm and relu1 fields are nil in frozen (inference-folded)
// blocks, where the statistics have been absorbed into the conv weights and
// biases and the inner ReLU into conv1's output pass.
type BasicBlock struct {
	conv1 *Conv2D
	bn1   *BatchNorm2D
	relu1 *ReLU
	conv2 *Conv2D
	bn2   *BatchNorm2D

	// downsample path, nil for identity skips
	downConv *Conv2D
	downBN   *BatchNorm2D

	// forward cache for the final ReLU and the skip add
	sumMask []bool
	out     *tensor.Tensor
	gsum    *tensor.Tensor
}

// NewBasicBlock builds a residual block mapping inC channels to outC with
// the given stride on the first convolution. A projection shortcut is added
// automatically when the shapes differ.
func NewBasicBlock(rng *rand.Rand, inC, outC, stride int) *BasicBlock {
	b := &BasicBlock{
		conv1: NewConv2D(rng, inC, outC, 3, stride, 1, false),
		bn1:   NewBatchNorm2D(outC),
		relu1: NewReLU(),
		conv2: NewConv2D(rng, outC, outC, 3, 1, 1, false),
		bn2:   NewBatchNorm2D(outC),
	}
	if stride != 1 || inC != outC {
		b.downConv = NewConv2D(rng, inC, outC, 1, stride, 0, false)
		b.downBN = NewBatchNorm2D(outC)
	}
	return b
}

// Forward implements Layer.
func (b *BasicBlock) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if b.conv1.frozen {
		return b.forwardFrozen(x)
	}
	main := b.bn1.Forward(b.conv1.Forward(x, train), train)
	main = b.relu1.Forward(main, train)
	main = b.bn2.Forward(b.conv2.Forward(main, train), train)

	skip := x
	if b.downConv != nil {
		skip = b.downBN.Forward(b.downConv.Forward(x, train), train)
	}
	// out = relu(main + skip); record the ReLU mask for backward.
	b.out = tensor.Ensure(b.out, main.N, main.C, main.H, main.W)
	out := b.out
	b.sumMask = ensureB(b.sumMask, main.Len())
	for i := range main.Data {
		s := main.Data[i] + skip.Data[i]
		if s > 0 {
			out.Data[i] = s
			b.sumMask[i] = true
		} else {
			out.Data[i] = 0
			b.sumMask[i] = false
		}
	}
	return out
}

// forwardFrozen runs the folded block on its lane's arena (see
// arena.plan): conv1, its ReLU fused, writes s1; conv2 writes s2; the
// downsample conv, having read the block input after conv2 read s1, reuses
// s1; and the residual add and its ReLU overwrite s2 in place with
// Forward's s := main + skip and its s > 0 test.
func (b *BasicBlock) forwardFrozen(x *tensor.Tensor) *tensor.Tensor {
	main := b.conv2.Forward(b.conv1.Forward(x, false), false)
	skip := x
	if b.downConv != nil {
		skip = b.downConv.Forward(x, false)
	}
	for i, v := range main.Data {
		if s := v + skip.Data[i]; s > 0 {
			main.Data[i] = s
		} else {
			main.Data[i] = 0
		}
	}
	return main
}

// Backward implements Layer.
func (b *BasicBlock) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if b.conv1.frozen {
		panic("nn: Backward through a frozen block")
	}
	// Through the final ReLU.
	b.gsum = tensor.Ensure(b.gsum, grad.N, grad.C, grad.H, grad.W)
	g := b.gsum
	for i := range grad.Data {
		if b.sumMask[i] {
			g.Data[i] = grad.Data[i]
		} else {
			g.Data[i] = 0
		}
	}
	// Main path.
	gm := b.conv2.Backward(b.bn2.Backward(g))
	gm = b.relu1.Backward(gm)
	gm = b.conv1.Backward(b.bn1.Backward(gm))
	// Skip path.
	gs := g
	if b.downConv != nil {
		gs = b.downConv.Backward(b.downBN.Backward(g))
	}
	gm.AddInto(gs)
	return gm
}

// Params implements Layer.
func (b *BasicBlock) Params() []*Param {
	out := append([]*Param{}, b.conv1.Params()...)
	if b.bn1 != nil {
		out = append(out, b.bn1.Params()...)
	}
	out = append(out, b.conv2.Params()...)
	if b.bn2 != nil {
		out = append(out, b.bn2.Params()...)
	}
	if b.downConv != nil {
		out = append(out, b.downConv.Params()...)
		if b.downBN != nil {
			out = append(out, b.downBN.Params()...)
		}
	}
	return out
}

// Sequential chains layers.
type Sequential struct {
	Layers []Layer
}

// NewSequential builds a sequential container.
func NewSequential(layers ...Layer) *Sequential { return &Sequential{Layers: layers} }

// Forward implements Layer.
func (s *Sequential) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	for _, l := range s.Layers {
		x = l.Forward(x, train)
	}
	return x
}

// Backward implements Layer.
func (s *Sequential) Backward(grad *tensor.Tensor) *tensor.Tensor {
	for i := len(s.Layers) - 1; i >= 0; i-- {
		grad = s.Layers[i].Backward(grad)
	}
	return grad
}

// Params implements Layer.
func (s *Sequential) Params() []*Param {
	var out []*Param
	for _, l := range s.Layers {
		out = append(out, l.Params()...)
	}
	return out
}
