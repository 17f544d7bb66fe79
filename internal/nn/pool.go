package nn

import (
	"fmt"
	"math"

	"ldmo/internal/tensor"
)

// MaxPool2D is a square max pooling layer (the ResNet stem uses 3x3/2 pad 1).
// A frozen max pool (see Network.Freeze) records no argmax and writes its
// lane's arena.
type MaxPool2D struct {
	K, Stride, Pad int

	frozen bool      // inference-only: no argmax, Backward panics
	dst    arenaSlot // frozen only: where the output goes
	in     *tensor.Tensor
	argmax []int // input index chosen per output element
	out    *tensor.Tensor
	gin    *tensor.Tensor
	outH   int
	outW   int
}

// NewMaxPool2D builds a max-pool layer.
func NewMaxPool2D(k, stride, pad int) *MaxPool2D {
	if k <= 0 || stride <= 0 || pad < 0 {
		panic(fmt.Sprintf("nn: invalid maxpool k%d s%d p%d", k, stride, pad))
	}
	return &MaxPool2D{K: k, Stride: stride, Pad: pad}
}

// Forward implements Layer.
func (p *MaxPool2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	p.outH = (x.H+2*p.Pad-p.K)/p.Stride + 1
	p.outW = (x.W+2*p.Pad-p.K)/p.Stride + 1
	if p.frozen {
		out := p.dst.get(x.N, x.C, p.outH, p.outW)
		p.forwardFrozen(x, out.Data)
		return out
	}
	p.in = x
	p.out = tensor.Ensure(p.out, x.N, x.C, p.outH, p.outW)
	out := p.out
	p.argmax = ensureI(p.argmax, out.Len())
	oi := 0
	for n := 0; n < x.N; n++ {
		for c := 0; c < x.C; c++ {
			plane := x.Data[(n*x.C+c)*x.H*x.W:]
			for oy := 0; oy < p.outH; oy++ {
				for ox := 0; ox < p.outW; ox++ {
					best := math.Inf(-1)
					bestIdx := -1
					for ky := 0; ky < p.K; ky++ {
						iy := oy*p.Stride - p.Pad + ky
						if iy < 0 || iy >= x.H {
							continue
						}
						for kx := 0; kx < p.K; kx++ {
							ix := ox*p.Stride - p.Pad + kx
							if ix < 0 || ix >= x.W {
								continue
							}
							if v := plane[iy*x.W+ix]; v > best {
								best = v
								bestIdx = (n*x.C+c)*x.H*x.W + iy*x.W + ix
							}
						}
					}
					out.Data[oi] = best
					p.argmax[oi] = bestIdx
					oi++
				}
			}
		}
	}
	return out
}

// forwardFrozen is Forward without the argmax record. It clips each
// window to the input once per output row and column instead of testing
// every tap, and keeps Forward's ky-then-kx scan with a strict > from -Inf,
// so ties between ±0, NaNs (never picked) and all -Inf windows resolve
// exactly as there.
func (p *MaxPool2D) forwardFrozen(x *tensor.Tensor, out []float64) {
	for plane := 0; plane < x.N*x.C; plane++ {
		in := x.Data[plane*x.H*x.W : (plane+1)*x.H*x.W]
		for oy := 0; oy < p.outH; oy++ {
			y0 := oy*p.Stride - p.Pad
			yLo, yHi := max(y0, 0), min(y0+p.K, x.H)
			for ox := 0; ox < p.outW; ox++ {
				x0 := ox*p.Stride - p.Pad
				xLo, xHi := max(x0, 0), min(x0+p.K, x.W)
				best := math.Inf(-1)
				for iy := yLo; iy < yHi && xLo < xHi; iy++ {
					for _, v := range in[iy*x.W+xLo : iy*x.W+xHi] {
						if v > best {
							best = v
						}
					}
				}
				out[(plane*p.outH+oy)*p.outW+ox] = best
			}
		}
	}
}

// Backward implements Layer.
func (p *MaxPool2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if p.frozen {
		panic("nn: Backward through a frozen max pool")
	}
	p.gin = tensor.Ensure(p.gin, p.in.N, p.in.C, p.in.H, p.in.W)
	gin := p.gin
	for i := range gin.Data {
		gin.Data[i] = 0
	}
	for i := 0; i < grad.Len(); i++ {
		if idx := p.argmax[i]; idx >= 0 {
			gin.Data[idx] += grad.Data[i]
		}
	}
	return gin
}

// Params implements Layer.
func (p *MaxPool2D) Params() []*Param { return nil }

// GlobalAvgPool reduces each channel plane to its mean (N,C,H,W -> N,C,1,1).
type GlobalAvgPool struct {
	inH, inW int
	out      *tensor.Tensor
	gin      *tensor.Tensor
}

// NewGlobalAvgPool returns a global average pooling layer.
func NewGlobalAvgPool() *GlobalAvgPool { return &GlobalAvgPool{} }

// Forward implements Layer.
func (p *GlobalAvgPool) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	p.inH, p.inW = x.H, x.W
	p.out = tensor.Ensure(p.out, x.N, x.C, 1, 1)
	out := p.out
	hw := x.H * x.W
	for nc := 0; nc < x.N*x.C; nc++ {
		s := 0.0
		for i := 0; i < hw; i++ {
			s += x.Data[nc*hw+i]
		}
		out.Data[nc] = s / float64(hw)
	}
	return out
}

// Backward implements Layer.
func (p *GlobalAvgPool) Backward(grad *tensor.Tensor) *tensor.Tensor {
	p.gin = tensor.Ensure(p.gin, grad.N, grad.C, p.inH, p.inW)
	gin := p.gin
	hw := p.inH * p.inW
	inv := 1 / float64(hw)
	for nc := 0; nc < grad.N*grad.C; nc++ {
		g := grad.Data[nc] * inv
		for i := 0; i < hw; i++ {
			gin.Data[nc*hw+i] = g
		}
	}
	return gin
}

// Params implements Layer.
func (p *GlobalAvgPool) Params() []*Param { return nil }
