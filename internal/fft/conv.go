package fft

import "fmt"

// Plan is a reusable workspace for repeated "same"-size 2-D convolutions of a
// w x h image with kw x kh kernels. The ILT loop convolves the same kernels
// against evolving masks hundreds of times per run, so the plan caches the
// padded power-of-two geometry, the twiddle/bit-reversal tables (shared
// process-wide per size), and scratch buffers; kernels are transformed once
// with TransformKernel. The hot path (Forward/ApplySpec and the
// Convolve/Correlate wrappers) performs no per-call allocation.
//
// All spectra are stored half-width (HW = PW/2+1 Hermitian bins per row, PH
// rows; see rfft.go). SpecLen reports their length. A 2-D transform is a
// real row transform per raster row followed by the column pass
// (transformCols), which runs in place over the row-major spectrum: it
// butterflies whole rows, so it needs no workspace of its own.
//
// A Plan is not safe for concurrent use; create one per goroutine. The one
// sanctioned sharing pattern is fan-out over a single Forward spectrum:
// ApplySpecWith and CorrelateWith may be called from several goroutines
// simultaneously on one plan as long as each caller owns a distinct Scratch
// (the methods only read plan geometry and the shared spectrum).
type Plan struct {
	W, H   int // image size
	KW, KH int // kernel size (odd in both dimensions)
	PW, PH int // padded transform size (powers of two)
	HW     int // spectral row width: PW/2+1

	vec     bool      // vector engine (see asm.go)
	twRow   *twiddles // length-PW tables (rows; rfft untangling)
	twHalf  *twiddles // length-PW/2 tables (packed rfft core; nil when PW == 1)
	twCol   *twiddles // length-PH tables (columns)
	scratch Scratch
}

// Scratch is the per-goroutine workspace of one convolution lane: a forward
// spectrum, a product/inverse-transform field, and one PW/2-complex row for
// the vector engine's row core, which transforms out of place: the forward
// row transforms pack into it, the inverse ones transform into it and
// unpack from it. The inverse row transforms write straight into the
// caller's output, so no real row is staged. A plan owns one Scratch for
// its serial methods; parallel callers allocate one per worker with
// NewScratch.
type Scratch struct {
	spec []complex128
	buf  []complex128
	row  []complex128
}

// NewPlan builds a convolution plan. Kernel dimensions must be odd so the
// kernel has an unambiguous center pixel. The plan runs the vector engine
// wherever the host supports it.
func NewPlan(w, h, kw, kh int) *Plan { return newPlan(w, h, kw, kh, haveFFTASM) }

// newPlan builds a plan on the given engine; the package's tests build
// scalar plans on vector hosts through it to compare the engines bitwise.
func newPlan(w, h, kw, kh int, vec bool) *Plan {
	if w <= 0 || h <= 0 || kw <= 0 || kh <= 0 {
		panic(fmt.Sprintf("fft: invalid plan dims %dx%d kernel %dx%d", w, h, kw, kh))
	}
	if kw%2 == 0 || kh%2 == 0 {
		panic(fmt.Sprintf("fft: kernel dims must be odd, got %dx%d", kw, kh))
	}
	pw := NextPow2(w + kw - 1)
	ph := NextPow2(h + kh - 1)
	p := &Plan{W: w, H: h, KW: kw, KH: kh, PW: pw, PH: ph, HW: rfftLen(pw), vec: vec}
	if pw > 1 {
		p.twHalf = tablesFor(pw / 2)
	}
	p.twRow = tablesFor(pw)
	p.twCol = tablesFor(ph)
	p.scratch = *p.NewScratch()
	return p
}

// SpecLen returns the length of this plan's spectral buffers — what Forward
// returns and TransformKernel produces, and the size callers must allocate
// for fused accumulators fed to InverseSpec.
func (p *Plan) SpecLen() int { return p.HW * p.PH }

// NewScratch allocates a workspace sized for this plan's padded geometry.
func (p *Plan) NewScratch() *Scratch {
	return &Scratch{
		spec: make([]complex128, p.SpecLen()),
		buf:  make([]complex128, p.SpecLen()),
		row:  make([]complex128, p.PW/2),
	}
}

// TransformKernel returns the frequency-domain representation of kernel
// (row-major kw x kh, center at ((kw-1)/2, (kh-1)/2)), wrapped so the center
// sits at the padded origin. The result can be passed to Convolve and
// Correlate any number of times. It allocates its own row buffer, so it
// needs no Scratch and is safe on a shared plan.
func (p *Plan) TransformKernel(kernel []float64) []complex128 {
	wrapped := p.wrapKernel(kernel)
	kf := make([]complex128, p.SpecLen())
	buf := make([]complex128, p.PW/2)
	for y, r := range p.twCol.rev {
		rfftRow(kf[int(r)*p.HW:][:p.HW], wrapped[y*p.PW:(y+1)*p.PW], buf, p.twHalf, p.twRow, p.vec)
	}
	colStages(kf, p.HW, p.PH, p.twCol, false, p.vec)
	return kf
}

// wrapKernel places kernel in a PW x PH real field with its center at the
// origin, ready for transformation.
func (p *Plan) wrapKernel(kernel []float64) []float64 {
	if len(kernel) != p.KW*p.KH {
		panic(fmt.Sprintf("fft: kernel length %d != %dx%d", len(kernel), p.KW, p.KH))
	}
	wrapped := make([]float64, p.PW*p.PH)
	cx, cy := (p.KW-1)/2, (p.KH-1)/2
	for ky := 0; ky < p.KH; ky++ {
		for kx := 0; kx < p.KW; kx++ {
			// Shift so the kernel center lands on (0,0), wrapping
			// negative offsets to the far edge of the padded field.
			x := (kx - cx + p.PW) % p.PW
			y := (ky - cy + p.PH) % p.PH
			wrapped[y*p.PW+x] = kernel[ky*p.KW+kx]
		}
	}
	return wrapped
}

// Convolve computes the "same"-size zero-padded linear convolution of img
// (row-major W x H) with a transformed kernel and writes it to out.
// out(x,y) = sum_{i,j} img(x-i, y-j) * kernel(center+(i,j)).
func (p *Plan) Convolve(img []float64, kfft []complex128, out []float64) {
	p.ConvolveWith(&p.scratch, img, kfft, out)
}

// Correlate computes the "same"-size zero-padded cross-correlation of img
// with a transformed kernel: out(x,y) = sum_{i,j} img(x+i, y+j) *
// kernel(center+(i,j)). For symmetric kernels this equals Convolve; the ILT
// gradient needs the correlated (adjoint) form for asymmetric ones.
func (p *Plan) Correlate(img []float64, kfft []complex128, out []float64) {
	p.CorrelateWith(&p.scratch, img, kfft, out)
}

// ConvolveWith is Convolve through a caller-owned scratch, for workers
// sharing one plan.
func (p *Plan) ConvolveWith(s *Scratch, img []float64, kfft []complex128, out []float64) {
	spec := p.ForwardInto(s, img)
	p.ApplySpecWith(s, spec, kfft, out, false)
}

// CorrelateWith is Correlate through a caller-owned scratch, for workers
// sharing one plan.
func (p *Plan) CorrelateWith(s *Scratch, img []float64, kfft []complex128, out []float64) {
	spec := p.ForwardInto(s, img)
	p.ApplySpecWith(s, spec, kfft, out, true)
}

// Forward zero-pads img into the plan's transform field and returns its
// spectrum. The returned slice is the plan's own scratch: it stays valid
// until the next Forward/Convolve/Correlate call on the plan and must not be
// modified. One Forward result can be combined with many transformed kernels
// via ApplySpec, which is how the SOCS simulator shares the mask transform
// across its kernel bank.
func (p *Plan) Forward(img []float64) []complex128 {
	return p.ForwardInto(&p.scratch, img)
}

// ForwardInto computes the spectrum of img in the scratch's spectrum buffer
// and returns it. The result aliases s and is overwritten by the next
// ForwardInto/ConvolveWith/CorrelateWith through the same scratch.
func (p *Plan) ForwardInto(s *Scratch, img []float64) []complex128 {
	if len(img) != p.W*p.H {
		panic(fmt.Sprintf("fft: image length %d != %dx%d", len(img), p.W, p.H))
	}
	// Each row transform lands at its bit-reversed row, so the column pass
	// starts at its butterflies. The padded rows are cleared on every call:
	// the in-place column pass of the previous call overwrote them.
	spec := s.spec
	for y, r := range p.twCol.rev {
		row := spec[int(r)*p.HW:][:p.HW]
		if y < p.H {
			rfftRow(row, img[y*p.W:(y+1)*p.W], s.row, p.twHalf, p.twRow, p.vec)
		} else {
			clear(row)
		}
	}
	colStages(spec, p.HW, p.PH, p.twCol, false, p.vec)
	return spec
}

// ApplySpec multiplies a Forward spectrum with a transformed kernel
// (conjugated when conj is true, giving correlation) and inverse-transforms
// the product into out. spec is not modified.
func (p *Plan) ApplySpec(spec, kfft []complex128, out []float64, conj bool) {
	p.ApplySpecWith(&p.scratch, spec, kfft, out, conj)
}

// ApplySpecWith is ApplySpec through a caller-owned scratch. Several workers
// may call it concurrently on one plan with the same shared spec as long as
// each passes a distinct Scratch. Passing the scratch whose spectrum buffer
// is spec itself is safe: the product is formed in the separate buf field.
func (p *Plan) ApplySpecWith(s *Scratch, spec, kfft []complex128, out []float64, conj bool) {
	if len(kfft) != p.SpecLen() || len(spec) != p.SpecLen() {
		panic("fft: spectrum or kernel transform from a different plan")
	}
	// The product of row y lands at its bit-reversed row, so the inverse
	// column pass starts at its butterflies.
	buf, hw := s.buf, p.HW
	for y, r := range p.twCol.rev {
		dst, a, b := buf[int(r)*hw:][:hw], spec[y*hw:][:hw], kfft[y*hw:][:hw]
		switch {
		case p.vec && conj:
			cmulConjInto(dst, a, b)
		case p.vec:
			cmulInto(dst, a, b)
		case conj:
			for i, k := range b {
				dst[i] = a[i] * complex(real(k), -imag(k))
			}
		default:
			for i, k := range b {
				dst[i] = a[i] * k
			}
		}
	}
	p.inverseInto(s, buf, out)
}

// InverseSpec inverse-transforms a frequency-domain field assembled from
// Forward spectra and transformed kernels of this plan — e.g. a fused
// gradient accumulation sum_k conj(K_k)*F_k — into out (row-major W x H).
// freq is destroyed. This is the "one inverse transform per gradient" entry
// the simulator's fused backward pass uses in place of one inverse per
// kernel.
func (p *Plan) InverseSpec(s *Scratch, freq []complex128, out []float64) {
	if len(freq) != p.SpecLen() {
		panic("fft: frequency field from a different plan")
	}
	permuteRows(freq, p.HW, p.twCol)
	p.inverseInto(s, freq, out)
}

// inverseInto inverse-transforms freq, whose rows are in bit-reversed order,
// in place and writes the W x H real region into out. Only the first H
// output rows are reconstructed: the padded tail rows are about to be
// discarded, so their inverse row transforms are skipped entirely. Each row
// transform unpacks only its W kept samples, straight into out, applying
// the row and then the column normalization. The row transforms run
// through the row buffer of s.
func (p *Plan) inverseInto(s *Scratch, freq []complex128, out []float64) {
	if len(out) != p.W*p.H {
		panic(fmt.Sprintf("fft: out length %d != %dx%d", len(out), p.W, p.H))
	}
	colStages(freq, p.HW, p.PH, p.twCol, true, p.vec)
	norm := 1 / float64(p.PH)
	for y := 0; y < p.H; y++ {
		irfftRow(out[y*p.W:(y+1)*p.W], freq[y*p.HW:(y+1)*p.HW], s.row, p.twHalf, p.twRow, norm, p.vec)
	}
}

// AccumulateConj adds spec[i] * conj(kfft[i]) into acc — the spectral-domain
// correlation accumulation of the fused adjoint pass. All three slices must
// share one plan's spectral layout.
func AccumulateConj(acc, spec, kfft []complex128) {
	if len(acc) != len(spec) || len(acc) != len(kfft) {
		panic(fmt.Sprintf("fft: accumulate length mismatch %d/%d/%d", len(acc), len(spec), len(kfft)))
	}
	if haveFFTASM {
		accumConjInto(acc, spec, kfft)
		return
	}
	for i, k := range kfft {
		acc[i] += spec[i] * complex(real(k), -imag(k))
	}
}

// DirectConvolve is the O(W*H*KW*KH) reference implementation of the same
// zero-padded convolution Plan.Convolve computes. It exists as the test
// oracle and for tiny kernels where FFT overhead dominates.
func DirectConvolve(img []float64, w, h int, kernel []float64, kw, kh int, out []float64) {
	cx, cy := (kw-1)/2, (kh-1)/2
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			s := 0.0
			for ky := 0; ky < kh; ky++ {
				iy := y - (ky - cy)
				if iy < 0 || iy >= h {
					continue
				}
				for kx := 0; kx < kw; kx++ {
					ix := x - (kx - cx)
					if ix < 0 || ix >= w {
						continue
					}
					s += img[iy*w+ix] * kernel[ky*kw+kx]
				}
			}
			out[y*w+x] = s
		}
	}
}

// DirectCorrelate is the reference for Plan.Correlate.
func DirectCorrelate(img []float64, w, h int, kernel []float64, kw, kh int, out []float64) {
	cx, cy := (kw-1)/2, (kh-1)/2
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			s := 0.0
			for ky := 0; ky < kh; ky++ {
				iy := y + (ky - cy)
				if iy < 0 || iy >= h {
					continue
				}
				for kx := 0; kx < kw; kx++ {
					ix := x + (kx - cx)
					if ix < 0 || ix >= w {
						continue
					}
					s += img[iy*w+ix] * kernel[ky*kw+kx]
				}
			}
			out[y*w+x] = s
		}
	}
}
