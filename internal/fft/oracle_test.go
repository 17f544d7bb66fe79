package fft

import (
	"fmt"
	"sync"
)

// The full-complex 2-D engine the real-input Plan replaced. It transforms
// the same padded PW x PH fields as complex rasters, so it shares no
// half-spectrum code with the Plan and serves as its reference: the Plan
// must agree with it to 1e-9, and its own scalar and vector runs must agree
// bit for bit. Its column pass is the strip pass the Plan's in-place row
// pass replaced, which transforms each column alone with the engine's 1-D
// transform (transform1D); that makes it the bitwise reference for
// transformCols as well.

// FFT performs an in-place forward radix-2 transform of x; len(x) must be
// a power of two.
func FFT(x []complex128) { transformWith(x, tablesFor(len(x)), false) }

// IFFT inverts FFT, including the 1/N normalization.
func IFFT(x []complex128) {
	transformWith(x, tablesFor(len(x)), true)
	scale(x, 1/float64(len(x)))
}

// transform1D transforms x in place on one engine: the scalar transformWith,
// or the vector engine's row core (transformInto), which reads its source
// at bit-reversed positions and so runs from a copy of x in tmp (len(tmp)
// >= len(x)). Below 4 points both engines run transformWith, as the plan's
// rows do.
func transform1D(x []complex128, tw *twiddles, inverse, vec bool, tmp []complex128) {
	if !vec || len(x) < 4 {
		transformWith(x, tw, inverse)
		return
	}
	src := tmp[:len(x)]
	copy(src, x)
	transformInto(x, src, tw, inverse)
}

// stripLen is the strip scratch transform2D takes for a w x h raster: the
// column strip, plus room for transform1D's copy of a row.
func stripLen(w, h int) int { return colBlock*h + w }

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
	strip := getStrip(stripLen(w, h))
	transform2D(data, w, h, false, *strip, haveFFTASM)
	stripPool.Put(strip)
}

// IFFT2D inverts FFT2D, including normalization.
func IFFT2D(data []complex128, w, h int) {
	strip := getStrip(stripLen(w, h))
	transform2D(data, w, h, true, *strip, haveFFTASM)
	stripPool.Put(strip)
}

// transform2D is the full-complex 2-D driver: rows, then columns through
// the caller's strip col (len >= h; on the vector engine len >= w for the
// rows' copies and >= 2h for the columns', which stripLen covers).
func transform2D(data []complex128, w, h int, inverse bool, col []complex128, vec bool) {
	if len(data) != w*h {
		panic(fmt.Sprintf("fft: data length %d != %d x %d", len(data), w, h))
	}
	rtw := tablesFor(w)
	for y := 0; y < h; y++ {
		transform1D(data[y*w:(y+1)*w], rtw, inverse, vec, col)
	}
	if inverse {
		scale(data, 1/float64(w))
	}
	stripCols(data, w, h, tablesFor(h), inverse, col, vec)
	if inverse {
		scale(data, 1/float64(h))
	}
}

// colBlock is how many columns the strip pass gathers per pass. Walking the
// raster row-wise in strips of colBlock columns keeps the gather/scatter
// sequential in memory instead of striding the full row width once per
// column.
const colBlock = 8

// stripCols transforms every column of the w x h raster in place using the
// length-h tables: it gathers as many columns as the strip scratch col
// holds, runs transform1D on each, and scatters them back. On the vector
// engine the last column of col is transform1D's copy. The per-column
// results are independent of the blocking factor. No normalization is
// applied.
func stripCols(data []complex128, w, h int, tw *twiddles, inverse bool, col []complex128, vec bool) {
	need := h
	if vec {
		need = 2 * h
	}
	if len(col) < need {
		panic(fmt.Sprintf("fft: column scratch %d < %d", len(col), need))
	}
	var tmp []complex128
	if vec {
		col, tmp = col[:len(col)-h], col[len(col)-h:]
	}
	nb := len(col) / h
	if nb > w {
		nb = w
	}
	for x0 := 0; x0 < w; x0 += nb {
		b := nb
		if x0+b > w {
			b = w - x0
		}
		blk := col[:b*h]
		for y := 0; y < h; y++ {
			row := data[y*w+x0 : y*w+x0+b]
			for j, v := range row {
				blk[j*h+y] = v
			}
		}
		for j := 0; j < b; j++ {
			transform1D(blk[j*h:(j+1)*h], tw, inverse, vec, tmp)
		}
		for y := 0; y < h; y++ {
			row := data[y*w+x0 : y*w+x0+b]
			for j := range row {
				row[j] = blk[j*h+y]
			}
		}
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
		buf: make([]complex128, n), col: make([]complex128, stripLen(p.PW, p.PH))}
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
