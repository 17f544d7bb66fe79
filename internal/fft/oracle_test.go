package fft

import (
	"fmt"
	"sync"
)

// The full-complex 2-D engine the real-input Plan replaced. It transforms
// the same padded PW x PH fields as complex rasters, so it shares no
// half-spectrum code with the Plan and serves as its reference: the Plan
// must agree with it to 1e-9, and its own scalar and vector runs must agree
// bit for bit.

// FFT performs an in-place forward radix-2 transform of x; len(x) must be
// a power of two.
func FFT(x []complex128) { transformWith(x, tablesFor(len(x)), false, haveFFTASM) }

// IFFT inverts FFT, including the 1/N normalization.
func IFFT(x []complex128) {
	transformWith(x, tablesFor(len(x)), true, haveFFTASM)
	scale(x, 1/float64(len(x)))
}

// scale multiplies every element by s (exact for s = 1/n, n a power of two).
func scale(x []complex128, s float64) {
	c := complex(s, 0)
	for i := range x {
		x[i] *= c
	}
}

// stripPool recycles the column strips of FFT2D/IFFT2D so they do not
// allocate in steady state.
var stripPool sync.Pool

func getStrip(n int) *[]complex128 {
	v, _ := stripPool.Get().(*[]complex128)
	if v == nil || cap(*v) < n {
		s := make([]complex128, n)
		v = &s
	}
	*v = (*v)[:n]
	return v
}

// FFT2D transforms a w x h row-major complex raster in place.
func FFT2D(data []complex128, w, h int) {
	strip := getStrip(colBlock * h)
	transform2D(data, w, h, false, *strip, haveFFTASM)
	stripPool.Put(strip)
}

// IFFT2D inverts FFT2D, including normalization.
func IFFT2D(data []complex128, w, h int) {
	strip := getStrip(colBlock * h)
	transform2D(data, w, h, true, *strip, haveFFTASM)
	stripPool.Put(strip)
}

// transform2D is the full-complex 2-D driver: rows, then columns through
// the caller's strip col (len >= h).
func transform2D(data []complex128, w, h int, inverse bool, col []complex128, vec bool) {
	if len(data) != w*h {
		panic(fmt.Sprintf("fft: data length %d != %d x %d", len(data), w, h))
	}
	rtw := tablesFor(w)
	for y := 0; y < h; y++ {
		transformWith(data[y*w:(y+1)*w], rtw, inverse, vec)
	}
	if inverse {
		scale(data, 1/float64(w))
	}
	transformCols(data, w, h, tablesFor(h), inverse, col, vec)
	if inverse {
		scale(data, 1/float64(h))
	}
}

// complexOracle convolves through full PW x PH complex spectra on the
// geometry of p, on the scalar or the vector engine.
type complexOracle struct {
	p              *Plan
	vec            bool
	spec, buf, col []complex128
}

func newComplexOracle(p *Plan, vec bool) *complexOracle {
	n := p.PW * p.PH
	return &complexOracle{p: p, vec: vec, spec: make([]complex128, n),
		buf: make([]complex128, n), col: make([]complex128, colBlock*p.PH)}
}

// kernel returns the full spectrum of the wrapped kernel.
func (o *complexOracle) kernel(kernel []float64) []complex128 {
	kf := make([]complex128, len(o.spec))
	for i, v := range o.p.wrapKernel(kernel) {
		kf[i] = complex(v, 0)
	}
	transform2D(kf, o.p.PW, o.p.PH, false, o.col, o.vec)
	return kf
}

// forward returns the full spectrum of img zero-padded to PW x PH. The
// result is o's scratch, overwritten by the next forward.
func (o *complexOracle) forward(img []float64) []complex128 {
	p, spec := o.p, o.spec
	for i := range spec {
		spec[i] = 0
	}
	for y := 0; y < p.H; y++ {
		for x := 0; x < p.W; x++ {
			spec[y*p.PW+x] = complex(img[y*p.W+x], 0)
		}
	}
	transform2D(spec, p.PW, p.PH, false, o.col, o.vec)
	return spec
}

// inverse inverse-transforms freq in place and writes the W x H real
// region into out.
func (o *complexOracle) inverse(freq []complex128, out []float64) {
	p := o.p
	transform2D(freq, p.PW, p.PH, true, o.col, o.vec)
	for y := 0; y < p.H; y++ {
		for x := 0; x < p.W; x++ {
			out[y*p.W+x] = real(freq[y*p.PW+x])
		}
	}
}

// apply is Plan.ApplySpec on full spectra: spec times kf (conjugated for
// correlation), inverse-transformed into out.
func (o *complexOracle) apply(spec, kf []complex128, out []float64, conj bool) {
	for i, k := range kf {
		if conj {
			k = complex(real(k), -imag(k))
		}
		o.buf[i] = spec[i] * k
	}
	o.inverse(o.buf, out)
}
