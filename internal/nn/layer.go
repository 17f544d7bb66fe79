// Package nn is a from-scratch neural-network library sufficient to build
// and train the paper's printability predictor: convolutions (im2col),
// batch normalization, ReLU, pooling, linear layers, residual basic blocks,
// MAE/MSE losses and the Adam optimizer, all with hand-written backward
// passes verified against numerical gradients in the tests.
//
// It replaces the PyTorch/GPU stack the paper trains ResNet-18 on; see
// DESIGN.md, substitution table row 2. Layers are single-threaded and cache
// their forward activations, so a layer instance serves one forward/backward
// pair at a time.
package nn

import (
	"math"
	"math/rand"

	"ldmo/internal/tensor"
)

// Param is one learnable (or tracked) parameter vector of a layer.
type Param struct {
	Name string
	Data []float64
	// Grad is the gradient buffer, allocated by the first ZeroGrads, so a
	// network that only ever runs inference holds none.
	Grad []float64
	// NoGrad marks parameters the optimizer skips and that never carry a
	// gradient: tracked state (batch-norm running statistics), which is
	// serialized with the model, and every parameter of a frozen network.
	NoGrad bool
}

// newLazyParam returns a trainable parameter whose gradient buffer waits
// for the first ZeroGrads.
func newLazyParam(name string, n int) *Param {
	return &Param{Name: name, Data: make([]float64, n)}
}

func newStateParam(name string, n int) *Param {
	return &Param{Name: name, Data: make([]float64, n), NoGrad: true}
}

// Layer is one differentiable stage of a network.
type Layer interface {
	// Forward consumes x and returns the activation. train selects
	// training behaviour (batch statistics in BatchNorm). The layer may
	// retain references to x and its output for Backward.
	Forward(x *tensor.Tensor, train bool) *tensor.Tensor
	// Backward consumes dL/d(output) and returns dL/d(input), having
	// accumulated parameter gradients.
	Backward(grad *tensor.Tensor) *tensor.Tensor
	// Params returns the layer's parameters, tracked state included.
	Params() []*Param
}

// ensureF returns s resized to n elements, reallocating only on capacity
// growth. Contents are unspecified; callers overwrite or zero what they
// read. Layers use it (with tensor.Ensure) to keep Forward/Backward
// allocation-free once buffers reach their steady-state size.
func ensureF(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func ensureI(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

func ensureB(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}

// heInit fills w with Kaiming-normal values for fanIn inputs.
func heInit(rng *rand.Rand, w []float64, fanIn int) {
	std := math.Sqrt(2 / float64(fanIn))
	for i := range w {
		w[i] = rng.NormFloat64() * std
	}
}

// ZeroGrads clears the gradient buffers of all params, allocating the
// buffer of each trainable param on first use: gradient storage appears
// when training starts, so every training step calls ZeroGrads before
// Backward. NoGrad params never get one.
func ZeroGrads(params []*Param) {
	for _, p := range params {
		if p.Grad == nil && !p.NoGrad {
			p.Grad = make([]float64, len(p.Data))
		}
		clear(p.Grad)
	}
}
