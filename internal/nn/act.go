package nn

import "ldmo/internal/tensor"

// ReLU is the rectified linear activation. Its output, gradient, and mask
// buffers are cached so both passes are allocation-free at steady state. A
// frozen ReLU (see Network.Freeze) writes only its output.
type ReLU struct {
	frozen bool // inference-only: no mask, Backward panics
	mask   []bool
	out    *tensor.Tensor
	gin    *tensor.Tensor
}

// NewReLU returns a ReLU layer.
func NewReLU() *ReLU { return &ReLU{} }

// Forward implements Layer.
func (r *ReLU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	r.out = tensor.Ensure(r.out, x.N, x.C, x.H, x.W)
	if r.frozen {
		for i, v := range x.Data {
			if v > 0 {
				r.out.Data[i] = v
			} else {
				r.out.Data[i] = 0
			}
		}
		return r.out
	}
	r.mask = ensureB(r.mask, x.Len())
	for i, v := range x.Data {
		if v > 0 {
			r.out.Data[i] = v
			r.mask[i] = true
		} else {
			r.out.Data[i] = 0
			r.mask[i] = false
		}
	}
	return r.out
}

// Backward implements Layer.
func (r *ReLU) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if r.frozen {
		panic("nn: Backward through a frozen ReLU")
	}
	r.gin = tensor.Ensure(r.gin, grad.N, grad.C, grad.H, grad.W)
	for i, g := range grad.Data {
		if r.mask[i] {
			r.gin.Data[i] = g
		} else {
			r.gin.Data[i] = 0
		}
	}
	return r.gin
}

// Params implements Layer.
func (r *ReLU) Params() []*Param { return nil }
