package litho

import (
	"fmt"
	"math"
)

// Kernel is one coherent system of the SOCS decomposition: a real-valued
// point-spread function with an intensity weight. The aerial image is
// I = sum_k Weight_k * (M (x) Data_k)^2.
type Kernel struct {
	Size   int       // odd edge length in pixels
	Data   []float64 // Size x Size row-major amplitude PSF
	Weight float64   // SOCS intensity weight
}

// NewGaussianKernel builds an amplitude PSF exp(-r^2/(2 sigma^2)) truncated
// at radius support*sigma, normalized so its amplitude sum is 1 (open-field
// amplitude response 1). sigmaPx is in pixels.
func NewGaussianKernel(sigmaPx, support float64, weight float64) Kernel {
	if sigmaPx <= 0 {
		panic(fmt.Sprintf("litho: sigmaPx must be positive, got %g", sigmaPx))
	}
	size := kernelSize(sigmaPx, support)
	r := size / 2
	data := make([]float64, size*size)
	sum := 0.0
	for y := -r; y <= r; y++ {
		for x := -r; x <= r; x++ {
			v := math.Exp(-float64(x*x+y*y) / (2 * sigmaPx * sigmaPx))
			data[(y+r)*size+(x+r)] = v
			sum += v
		}
	}
	for i := range data {
		data[i] /= sum
	}
	return Kernel{Size: size, Data: data, Weight: weight}
}

// kernelSize returns the edge length of the kernel NewGaussianKernel builds
// for sigmaPx and support: 2r+1 with r = ceil(sigmaPx*support), at least 1.
func kernelSize(sigmaPx, support float64) int {
	r := int(math.Ceil(sigmaPx * support))
	if r < 1 {
		r = 1
	}
	return 2*r + 1
}

// BuildKernelBank constructs the SOCS bank for p: a primary focus kernel and,
// when DefocusWeight > 0, a wider defocus/partial-coherence kernel. Weights
// are scaled so the open-field aerial intensity equals p.Gain.
func BuildKernelBank(p Params) []Kernel {
	sigmaPx := p.Sigma / float64(p.Resolution)
	bank := []Kernel{NewGaussianKernel(sigmaPx, p.KernelSupport, (1-p.DefocusWeight)*p.Gain)}
	if p.DefocusWeight > 0 {
		dsPx := p.DefocusSigma / float64(p.Resolution)
		bank = append(bank, NewGaussianKernel(dsPx, p.KernelSupport, p.DefocusWeight*p.Gain))
	}
	return bank
}

// MaxKernelSize returns the largest edge length in the bank.
func MaxKernelSize(bank []Kernel) int {
	m := 0
	for _, k := range bank {
		if k.Size > m {
			m = k.Size
		}
	}
	return m
}

// bankKernelSize returns MaxKernelSize(BuildKernelBank(p)) without building
// the bank, whose Gaussians cost (2r+1)² exp calls each.
func bankKernelSize(p Params) int {
	res := float64(p.Resolution)
	ks := kernelSize(p.Sigma/res, p.KernelSupport)
	if p.DefocusWeight > 0 {
		ks = max(ks, kernelSize(p.DefocusSigma/res, p.KernelSupport))
	}
	return ks
}

// padKernel embeds k.Data centered inside a size x size raster (size >=
// k.Size, both odd) so all kernels of a bank share one FFT plan.
func padKernel(k Kernel, size int) []float64 {
	if size == k.Size {
		return k.Data
	}
	if size < k.Size || size%2 == 0 {
		panic(fmt.Sprintf("litho: cannot pad kernel %d to %d", k.Size, size))
	}
	out := make([]float64, size*size)
	off := (size - k.Size) / 2
	for y := 0; y < k.Size; y++ {
		copy(out[(y+off)*size+off:(y+off)*size+off+k.Size], k.Data[y*k.Size:(y+1)*k.Size])
	}
	return out
}
