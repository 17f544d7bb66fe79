package nn

import (
	"math"

	"ldmo/internal/tensor"
)

// BatchNorm2D normalizes each channel over (N, H, W) with learnable scale
// and shift, tracking running statistics for inference.
type BatchNorm2D struct {
	C        int
	Eps      float64
	Momentum float64 // running-stat update rate (PyTorch-style, 0.1)

	gamma, beta          *Param
	runMean, runVar      *Param // NoGrad tracked state
	xhat                 []float64
	invStd, batchMean    []float64
	in                   *tensor.Tensor
	out, gin             *tensor.Tensor
	lastTrain            bool
	cachedPerChannelSize int
}

// NewBatchNorm2D builds a batch-norm layer for c channels (gamma=1, beta=0,
// running variance 1).
func NewBatchNorm2D(c int) *BatchNorm2D {
	bn := &BatchNorm2D{C: c, Eps: 1e-5, Momentum: 0.1}
	bn.gamma = newLazyParam("bn.gamma", c)
	bn.beta = newLazyParam("bn.beta", c)
	bn.runMean = newStateParam("bn.running_mean", c)
	bn.runVar = newStateParam("bn.running_var", c)
	for i := 0; i < c; i++ {
		bn.gamma.Data[i] = 1
		bn.runVar.Data[i] = 1
	}
	return bn
}

// Forward implements Layer.
func (bn *BatchNorm2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.C != bn.C {
		panic("nn: batchnorm channel mismatch")
	}
	bn.in = x
	bn.lastTrain = train
	hw := x.H * x.W
	m := x.N * hw
	bn.cachedPerChannelSize = m
	bn.out = tensor.Ensure(bn.out, x.N, x.C, x.H, x.W)
	out := bn.out
	bn.xhat = ensureF(bn.xhat, x.Len())
	bn.invStd = ensureF(bn.invStd, bn.C)
	bn.batchMean = ensureF(bn.batchMean, bn.C)
	for c := 0; c < bn.C; c++ {
		var mean, varv float64
		if train {
			for n := 0; n < x.N; n++ {
				base := (n*x.C + c) * hw
				for i := 0; i < hw; i++ {
					mean += x.Data[base+i]
				}
			}
			mean /= float64(m)
			for n := 0; n < x.N; n++ {
				base := (n*x.C + c) * hw
				for i := 0; i < hw; i++ {
					d := x.Data[base+i] - mean
					varv += d * d
				}
			}
			varv /= float64(m)
			bn.runMean.Data[c] = (1-bn.Momentum)*bn.runMean.Data[c] + bn.Momentum*mean
			// Unbiased variance for the running estimate, per the
			// PyTorch convention.
			unbiased := varv
			if m > 1 {
				unbiased = varv * float64(m) / float64(m-1)
			}
			bn.runVar.Data[c] = (1-bn.Momentum)*bn.runVar.Data[c] + bn.Momentum*unbiased
		} else {
			mean = bn.runMean.Data[c]
			varv = bn.runVar.Data[c]
		}
		inv := 1 / math.Sqrt(varv+bn.Eps)
		bn.invStd[c] = inv
		bn.batchMean[c] = mean
		g, b := bn.gamma.Data[c], bn.beta.Data[c]
		for n := 0; n < x.N; n++ {
			base := (n*x.C + c) * hw
			for i := 0; i < hw; i++ {
				xh := (x.Data[base+i] - mean) * inv
				bn.xhat[base+i] = xh
				out.Data[base+i] = g*xh + b
			}
		}
	}
	return out
}

// Backward implements Layer. The training-mode gradient accounts for the
// dependence of the batch statistics on the input.
func (bn *BatchNorm2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	x := bn.in
	hw := x.H * x.W
	m := float64(bn.cachedPerChannelSize)
	bn.gin = tensor.Ensure(bn.gin, x.N, x.C, x.H, x.W)
	gin := bn.gin
	for c := 0; c < bn.C; c++ {
		g := bn.gamma.Data[c]
		inv := bn.invStd[c]
		var sumDy, sumDyXhat float64
		for n := 0; n < x.N; n++ {
			base := (n*x.C + c) * hw
			for i := 0; i < hw; i++ {
				dy := grad.Data[base+i]
				sumDy += dy
				sumDyXhat += dy * bn.xhat[base+i]
			}
		}
		bn.beta.Grad[c] += sumDy
		bn.gamma.Grad[c] += sumDyXhat
		if bn.lastTrain {
			for n := 0; n < x.N; n++ {
				base := (n*x.C + c) * hw
				for i := 0; i < hw; i++ {
					dy := grad.Data[base+i]
					xh := bn.xhat[base+i]
					gin.Data[base+i] = g * inv / m * (m*dy - sumDy - xh*sumDyXhat)
				}
			}
		} else {
			// Inference-mode stats are constants.
			for n := 0; n < x.N; n++ {
				base := (n*x.C + c) * hw
				for i := 0; i < hw; i++ {
					gin.Data[base+i] = grad.Data[base+i] * g * inv
				}
			}
		}
	}
	return gin
}

// Params implements Layer.
func (bn *BatchNorm2D) Params() []*Param {
	return []*Param{bn.gamma, bn.beta, bn.runMean, bn.runVar}
}
