package nn

import (
	"fmt"
	"math"
	"slices"
)

// Freeze returns an independent inference-only copy of the network with
// every BatchNorm2D folded into the convolution it follows: with running
// statistics fixed, y = gamma*(conv(x)+b-mean)/sqrt(var+eps) + beta is an
// affine function of the conv output, so scaling each output channel's
// weights by s = gamma/sqrt(var+eps) and setting the bias to
// beta + s*(b-mean) reproduces it in a single conv. The copy shares no
// state with the original (safe to run concurrently with it) and halves the
// per-layer memory passes at inference.
//
// Each frozen conv keeps its weight matrix only in the pre-packed layout of
// tensor.ConvPacked, packed once here instead of on every forward, and
// builds no column matrix: the GEMM expands its B panels straight from the
// input. Frozen ReLU and max-pool layers record no backward state (mask,
// argmax). Frozen parameters are NoGrad and carry no gradient buffer: a
// frozen network is inference-only, and Backward through a frozen conv,
// ReLU or max pool panics. Lane adds concurrent lanes over the same
// weights.
//
// Folding changes rounding (the scale is applied to weights once instead of
// to activations per element), so frozen outputs agree with the source
// network's inference outputs to relative rounding error, not bitwise.
func (n *Network) Freeze() *Network {
	return &Network{Seq: NewSequential(freezeLayers(n.Seq.Layers, false)...)}
}

// Lane returns another inference lane of the frozen network n: the same
// layers reading n's weights and biases in place, shared read-only rather
// than copied, each lane owning only its activation caches. Lanes of one
// frozen network may forward concurrently with each other and with n, and
// every lane computes exactly n's bits. Lane panics if n was not built by
// Freeze.
func (n *Network) Lane() *Network {
	return &Network{Seq: NewSequential(freezeLayers(n.Seq.Layers, true)...)}
}

// freezeLayers maps a layer stack to its inference form, consuming each
// BatchNorm2D that directly follows a Conv2D. With share set the result is
// a lane of an already-frozen stack, reading its parameters in place.
func freezeLayers(layers []Layer, share bool) []Layer {
	out := make([]Layer, 0, len(layers))
	for i := 0; i < len(layers); i++ {
		if conv, ok := layers[i].(*Conv2D); ok && i+1 < len(layers) {
			if bn, ok := layers[i+1].(*BatchNorm2D); ok {
				out = append(out, foldConvBN(conv, bn, share))
				i++
				continue
			}
		}
		out = append(out, freezeLayer(layers[i], share))
	}
	return out
}

func freezeLayer(l Layer, share bool) Layer {
	switch v := l.(type) {
	case *Conv2D:
		return foldConvBN(v, nil, share)
	case *BatchNorm2D:
		return &BatchNorm2D{C: v.C, Eps: v.Eps, Momentum: v.Momentum,
			gamma: frozenParam(v.gamma, share), beta: frozenParam(v.beta, share),
			runMean: frozenParam(v.runMean, share), runVar: frozenParam(v.runVar, share)}
	case *ReLU:
		return &ReLU{frozen: true}
	case *MaxPool2D:
		return &MaxPool2D{K: v.K, Stride: v.Stride, Pad: v.Pad, frozen: true}
	case *GlobalAvgPool:
		return NewGlobalAvgPool()
	case *Linear:
		return &Linear{In: v.In, Out: v.Out, weight: frozenParam(v.weight, share), bias: frozenParam(v.bias, share)}
	case *BasicBlock:
		return v.freeze(share)
	case *Sequential:
		return NewSequential(freezeLayers(v.Layers, share)...)
	default:
		panic(fmt.Sprintf("nn: cannot freeze layer %T", l))
	}
}

// freeze folds both conv+BN stages of the block (and the downsample pair);
// the frozen block's bn fields are nil and Forward/Backward skip them.
func (b *BasicBlock) freeze(share bool) *BasicBlock {
	nb := &BasicBlock{
		conv1: foldConvBN(b.conv1, b.bn1, share),
		relu1: &ReLU{frozen: true},
		conv2: foldConvBN(b.conv2, b.bn2, share),
	}
	if b.downConv != nil {
		nb.downConv = foldConvBN(b.downConv, b.downBN, share)
	}
	return nb
}

// errLaneUnfrozen is Lane's refusal of a network Freeze did not build,
// whose parameters are trainable and so not safe to share across lanes.
const errLaneUnfrozen = "nn: Lane of a network that Freeze did not build"

// frozenParam returns p's inference form: a NoGrad copy without a gradient
// buffer, or for a lane p itself, which must already be frozen. A nil p
// stays nil.
func frozenParam(p *Param, share bool) *Param {
	switch {
	case p == nil:
		return nil
	case share && !p.NoGrad:
		panic(errLaneUnfrozen)
	case share:
		return p
	}
	return &Param{Name: p.Name, Data: slices.Clone(p.Data), NoGrad: true}
}

// foldConvBN returns a frozen conv whose weights and bias absorb the batch
// norm's inference affine transform (a nil bn folds nothing), with the
// weights written once into tensor.ConvPacked's layout. A conv that is
// already frozen has no batch norm after it; it is copied as it stands, or
// shared for a lane.
func foldConvBN(c *Conv2D, bn *BatchNorm2D, share bool) *Conv2D {
	nc := &Conv2D{InC: c.InC, OutC: c.OutC, K: c.K, Stride: c.Stride, Pad: c.Pad, frozen: true}
	if c.frozen {
		nc.weight, nc.bias = frozenParam(c.weight, share), frozenParam(c.bias, share)
		return nc
	}
	if share {
		panic(errLaneUnfrozen)
	}
	nc.weight = &Param{Name: c.weight.Name, Data: make([]float64, len(c.weight.Data)), NoGrad: true}
	if c.bias != nil {
		nc.bias = frozenParam(c.bias, false)
	} else if bn != nil {
		nc.bias = &Param{Name: "conv.bias", Data: make([]float64, c.OutC), NoGrad: true}
	}
	// Output channel oc is row r = oc mod 4 of the 4-row strip starting at
	// i0 = oc - r, which holds mr rows; its weight kk lands at
	// i0*rowLen + kk*mr + r.
	rowLen := c.InC * c.K * c.K
	for oc := 0; oc < c.OutC; oc++ {
		row := c.weight.Data[oc*rowLen : (oc+1)*rowLen]
		i0 := oc &^ 3
		mr := min(4, c.OutC-i0)
		dst := nc.weight.Data[i0*rowLen+oc-i0:]
		if bn == nil {
			for kk, w := range row {
				dst[kk*mr] = w
			}
			continue
		}
		s := bn.gamma.Data[oc] / math.Sqrt(bn.runVar.Data[oc]+bn.Eps)
		for kk, w := range row {
			dst[kk*mr] = w * s
		}
		nc.bias.Data[oc] = bn.beta.Data[oc] + s*(nc.bias.Data[oc]-bn.runMean.Data[oc])
	}
	return nc
}
