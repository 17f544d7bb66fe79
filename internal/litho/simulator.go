package litho

import (
	"fmt"

	"ldmo/internal/fft"
	"ldmo/internal/grid"
	"ldmo/internal/simclock"
)

// Simulator evaluates the forward optical model on a fixed w x h raster and
// exposes the adjoint (backward) pass the ILT engine differentiates through.
// A Simulator is a serial, single-goroutine object: it owns its transform
// scratch and accumulation buffers, so it is not safe for concurrent use.
// Callers that want parallelism run one Simulator per goroutine; simulators
// of one (params, raster) pair share the immutable kernel bank, plan and
// kernel spectra, so each extra one costs only its scratch.
type Simulator struct {
	P       Params
	W, H    int
	bank    []Kernel
	plan    *fft.Plan
	fs      *fft.Scratch // transform workspace
	kffts   [][]complex128
	field   []float64    // scratch: amplitude field of the current kernel
	acc     []float64    // scratch: gradient accumulation
	specAcc []complex128 // scratch: fused spectral gradient accumulator
	clock   *simclock.Clock
}

// MaxTransformSide bounds the padded FFT side of a simulator: the largest
// transform size the fft package's engine-equivalence tests cover. At 4 nm
// it admits rasters near 4000 px a side, far beyond the largest library
// cell (136 px with a 111 px kernel); what it refuses would need gigabytes
// of spectra.
const MaxTransformSide = 4096

// CheckRaster reports whether a w x h raster under p is one NewSimulator
// accepts: valid params and a padded transform side NextPow2(side+ks-1) of
// at most MaxTransformSide in both dimensions, ks being the bank's largest
// kernel. NewSimulator enforces it; a service admitting untrusted layouts
// calls it first, to refuse an oversized job before queueing it.
func CheckRaster(w, h int, p Params) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if w <= 0 || h <= 0 {
		return fmt.Errorf("litho: invalid raster %dx%d", w, h)
	}
	ks := bankKernelSize(p)
	if pw, ph := fft.NextPow2(w+ks-1), fft.NextPow2(h+ks-1); pw > MaxTransformSide || ph > MaxTransformSide {
		return fmt.Errorf("litho: raster %dx%d needs a %dx%d transform, above the %d limit",
			w, h, pw, ph, MaxTransformSide)
	}
	return nil
}

// NewSimulator builds a simulator for a w x h raster under params p (see
// CheckRaster for the accepted sizes).
func NewSimulator(w, h int, p Params) (*Simulator, error) {
	if err := CheckRaster(w, h, p); err != nil {
		return nil, err
	}
	// The kernel bank, convolution plan, and kernel spectra are immutable and
	// identical for every simulator of this (params, raster) pair, so they
	// come from the process-wide cache; only mutable scratch is owned.
	sh := sharedFor(p, w, h)
	return &Simulator{
		P: p, W: w, H: h, bank: sh.bank, plan: sh.plan, fs: sh.plan.NewScratch(), kffts: sh.kffts,
		field: make([]float64, w*h), acc: make([]float64, w*h),
		specAcc: make([]complex128, sh.plan.SpecLen()),
	}, nil
}

// SetClock attaches a deterministic cost clock; every kernel convolution is
// charged to it. A nil clock disables accounting. The clock is mutex-guarded,
// so one clock may be shared across many pooled simulators.
func (s *Simulator) SetClock(c *simclock.Clock) { s.clock = c }

// KernelCount returns the number of SOCS kernels in the bank.
func (s *Simulator) KernelCount() int { return len(s.bank) }

// Fields holds the per-kernel amplitude fields (M (x) h_k) of one forward
// evaluation; the adjoint pass needs them, so Aerial hands them back.
type Fields struct {
	Amp [][]float64 // one w*h field per kernel
}

// NewFields allocates a Fields workspace matching s.
func (s *Simulator) NewFields() *Fields {
	f := &Fields{Amp: make([][]float64, len(s.bank))}
	for i := range f.Amp {
		f.Amp[i] = make([]float64, s.W*s.H)
	}
	return f
}

// Aerial computes the SOCS aerial image I = sum_k w_k (mask (x) h_k)^2 into
// out and stores the per-kernel amplitude fields into fields (which may be
// nil when no backward pass will follow).
func (s *Simulator) Aerial(mask []float64, out []float64, fields *Fields) {
	if len(mask) != s.W*s.H || len(out) != s.W*s.H {
		panic(fmt.Sprintf("litho: mask/out length %d/%d != %dx%d", len(mask), len(out), s.W, s.H))
	}
	for i := range out {
		out[i] = 0
	}
	// The mask transform is shared by every kernel, computed once into the
	// simulator's own scratch. The plan itself is process-shared, so only
	// *With methods with simulator-owned scratch may run on it.
	spec := s.plan.ForwardInto(s.fs, mask)
	for k := range s.bank {
		dst := s.field
		if fields != nil {
			dst = fields.Amp[k]
		}
		s.plan.ApplySpecWith(s.fs, spec, s.kffts[k], dst, false)
		s.clock.Charge(simclock.CostConvolution, 1)
		accumSquares(pixelVector, out, dst, s.bank[k].Weight)
	}
}

// AerialBackward accumulates into gradMask the adjoint of Aerial: given
// gradI = dL/dI it computes dL/dMask = sum_k w_k * 2 * corr(h_k, gradI *
// amp_k). fields must come from the matching forward Aerial call. gradMask
// is overwritten, not accumulated into.
//
// The per-kernel correlations are fused in the frequency domain: each kernel
// contributes one forward transform of its weighted field, the products
// with conj(K_k) accumulate into a single half-spectrum, and one inverse
// transform produces the whole gradient — K+1 transforms per call instead of
// the 2K of a kernel-by-kernel adjoint. The clock still charges one
// convolution per kernel.
func (s *Simulator) AerialBackward(gradI []float64, fields *Fields, gradMask []float64) {
	if fields == nil {
		panic("litho: AerialBackward requires fields from Aerial")
	}
	acc := s.specAcc
	for i := range acc {
		acc[i] = 0
	}
	for k := range s.bank {
		weightField(pixelVector, s.acc, gradI, fields.Amp[k], 2*s.bank[k].Weight)
		spec := s.plan.ForwardInto(s.fs, s.acc)
		fft.AccumulateConj(acc, spec, s.kffts[k])
		s.clock.Charge(simclock.CostConvolution, 1)
	}
	s.plan.InverseSpec(s.fs, acc, gradMask)
}

// Resist applies the constant-threshold resist sigmoid (Eq. 2) to an aerial
// image.
func (s *Simulator) Resist(aerial []float64, out []float64) {
	ResistSigmoid(s.P.ThetaZ, s.P.Ith, aerial, out)
}

// ResistBackward converts dL/dT into dL/dI for the sigmoid resist:
// dT/dI = tz * T * (1-T). It overwrites gradI.
func (s *Simulator) ResistBackward(gradT, t []float64, gradI []float64) {
	resistBackward(pixelVector, gradT, t, gradI, s.P.ThetaZ)
}

// PrintedImage runs the full single-mask forward model (aerial + resist) and
// returns the resist image as a grid matching g's raster geometry.
func (s *Simulator) PrintedImage(mask *grid.Grid) *grid.Grid {
	if mask.W != s.W || mask.H != s.H {
		panic(fmt.Sprintf("litho: mask raster %dx%d != simulator %dx%d", mask.W, mask.H, s.W, s.H))
	}
	aerial := make([]float64, s.W*s.H)
	s.Aerial(mask.Data, aerial, nil)
	out := grid.NewLike(mask)
	s.Resist(aerial, out.Data)
	return out
}

// ComposeDouble writes the double-patterning printed image
// T = min(T1+T2, 1) (Eq. 3) into out, and returns, via the boolean raster
// sat, which pixels were clamped (the gradient is zero there). sat may be
// nil.
func ComposeDouble(t1, t2, out []float64, sat []bool) {
	composeDouble(pixelVector, t1, t2, out, sat)
}

// ComposeDoubleBackward writes into gradT the gradient of the image loss
// L = sum (T - target)^2 with respect to either mask's resist image, for
// the T that ComposeDouble wrote with its sat: 2*(T - target) where Eq. 3
// did not clamp, and +0 where it did.
func ComposeDoubleBackward(t, target []float64, sat []bool, gradT []float64) {
	composeBackward(pixelVector, t, target, sat, gradT)
}
