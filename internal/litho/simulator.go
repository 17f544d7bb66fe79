package litho

import (
	"fmt"

	"ldmo/internal/fft"
	"ldmo/internal/grid"
	"ldmo/internal/par"
	"ldmo/internal/simclock"
)

// Simulator evaluates the forward optical model on a fixed w x h raster and
// exposes the adjoint (backward) pass the ILT engine differentiates through.
// A Simulator is not safe for concurrent use; create one per goroutine. It
// may parallelize internally across its SOCS kernel bank (see SetWorkers):
// the mask's forward transform is computed once and shared, each worker lane
// owns its own inverse-FFT scratch and accumulation buffers, and the
// per-kernel contributions are reduced in fixed kernel order, so the output
// is bit-identical to the serial evaluation.
type Simulator struct {
	P       Params
	W, H    int
	bank    []Kernel
	plan    *fft.Plan
	fs      *fft.Scratch // the serial lane's transform workspace
	kffts   [][]complex128
	field   []float64    // scratch: amplitude field of the current kernel
	acc     []float64    // scratch: gradient accumulation
	specAcc []complex128 // scratch: fused spectral gradient accumulator
	clock   *simclock.Clock

	workers int       // kernel-level parallelism (1 = serial)
	pool    *par.Pool // lazily built with the lane scratch below
	lanes   []*simLane
	kbuf    [][]float64    // per-kernel field scratch for the parallel paths
	kspec   [][]complex128 // per-kernel spectral scratch (fused parallel backward)
}

// simLane is the worker-owned scratch of one kernel-parallel lane.
type simLane struct {
	fs  *fft.Scratch
	acc []float64
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
	ks := MaxKernelSize(BuildKernelBank(p))
	if pw, ph := fft.NextPow2(w+ks-1), fft.NextPow2(h+ks-1); pw > MaxTransformSide || ph > MaxTransformSide {
		return fmt.Errorf("litho: raster %dx%d needs a %dx%d transform, above the %d limit",
			w, h, pw, ph, MaxTransformSide)
	}
	return nil
}

// NewSimulator builds a simulator for a w x h raster under params p (see
// CheckRaster for the accepted sizes). Kernel parallelism defaults to
// min(par.Workers(), kernel count); SetWorkers overrides it.
func NewSimulator(w, h int, p Params) (*Simulator, error) {
	if err := CheckRaster(w, h, p); err != nil {
		return nil, err
	}
	// The kernel bank, convolution plan, and kernel spectra are immutable and
	// identical for every simulator of this (params, raster) pair, so they
	// come from the process-wide cache; only mutable scratch is owned.
	sh := sharedFor(p, w, h)
	s := &Simulator{
		P: p, W: w, H: h, bank: sh.bank, plan: sh.plan, fs: sh.plan.NewScratch(), kffts: sh.kffts,
		field: make([]float64, w*h), acc: make([]float64, w*h),
		specAcc: make([]complex128, sh.plan.SpecLen()),
	}
	s.SetWorkers(0)
	return s, nil
}

// SetClock attaches a deterministic cost clock; every kernel convolution is
// charged to it. A nil clock disables accounting. The clock is mutex-guarded,
// so one clock may be shared across many pooled simulators.
func (s *Simulator) SetClock(c *simclock.Clock) { s.clock = c }

// SetWorkers sets the kernel-level parallelism: n lanes convolve the bank
// concurrently (n <= 0 selects par.Workers()). The count is capped at the
// kernel count; 1 runs the plain serial loop. Output is bit-identical either
// way.
func (s *Simulator) SetWorkers(n int) {
	if n <= 0 {
		n = par.Workers()
	}
	if n > len(s.bank) {
		n = len(s.bank)
	}
	if n < 1 {
		n = 1
	}
	if n == s.workers {
		return
	}
	s.workers = n
	s.pool = nil
	s.lanes = nil
	s.kbuf = nil
	s.kspec = nil
}

// Workers returns the kernel-level parallelism in effect.
func (s *Simulator) Workers() int { return s.workers }

// ensurePar lazily builds the pool, the per-lane scratch, and the per-kernel
// field buffers the parallel paths need.
func (s *Simulator) ensurePar() {
	if s.pool != nil {
		return
	}
	s.pool = par.NewPool(s.workers)
	s.lanes = make([]*simLane, s.workers)
	for i := range s.lanes {
		s.lanes[i] = &simLane{fs: s.plan.NewScratch(), acc: make([]float64, s.W*s.H)}
	}
	s.kbuf = make([][]float64, len(s.bank))
	for i := range s.kbuf {
		s.kbuf[i] = make([]float64, s.W*s.H)
	}
	s.kspec = make([][]complex128, len(s.bank))
	for i := range s.kspec {
		s.kspec[i] = make([]complex128, s.plan.SpecLen())
	}
}

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
	if s.workers > 1 && len(s.bank) > 1 {
		s.ensurePar()
		s.pool.Map(len(s.bank), func(lane, k int) {
			dst := s.kbuf[k]
			if fields != nil {
				dst = fields.Amp[k]
			}
			s.plan.ApplySpecWith(s.lanes[lane].fs, spec, s.kffts[k], dst, false)
			s.clock.Charge(simclock.CostConvolution, 1)
		})
		// Reduce in fixed kernel order: the per-pixel additions happen in
		// exactly the serial loop's sequence.
		for k := range s.bank {
			dst := s.kbuf[k]
			if fields != nil {
				dst = fields.Amp[k]
			}
			w := s.bank[k].Weight
			for i, a := range dst {
				out[i] += w * a * a
			}
		}
		return
	}
	for k := range s.bank {
		dst := s.field
		if fields != nil {
			dst = fields.Amp[k]
		}
		s.plan.ApplySpecWith(s.fs, spec, s.kffts[k], dst, false)
		s.clock.Charge(simclock.CostConvolution, 1)
		w := s.bank[k].Weight
		for i, a := range dst {
			out[i] += w * a * a
		}
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
// convolution per kernel. The parallel reduction runs in fixed kernel order,
// so the output is bit-identical to the serial evaluation at any worker
// count.
func (s *Simulator) AerialBackward(gradI []float64, fields *Fields, gradMask []float64) {
	if fields == nil {
		panic("litho: AerialBackward requires fields from Aerial")
	}
	acc := s.specAcc
	for i := range acc {
		acc[i] = 0
	}
	if s.workers > 1 && len(s.bank) > 1 {
		s.ensurePar()
		s.pool.Map(len(s.bank), func(lane, k int) {
			ln := s.lanes[lane]
			w := s.bank[k].Weight
			amp := fields.Amp[k]
			for i := range ln.acc {
				ln.acc[i] = 2 * w * gradI[i] * amp[i]
			}
			spec := s.plan.ForwardInto(ln.fs, ln.acc)
			fft.MulConj(s.kspec[k], spec, s.kffts[k])
			s.clock.Charge(simclock.CostConvolution, 1)
		})
		// Reduce in fixed kernel order: the same per-bin additions, in the
		// same sequence, as the serial accumulation below.
		for k := range s.bank {
			ks := s.kspec[k]
			for i := range acc {
				acc[i] += ks[i]
			}
		}
	} else {
		for k := range s.bank {
			w := s.bank[k].Weight
			amp := fields.Amp[k]
			for i := range s.acc {
				s.acc[i] = 2 * w * gradI[i] * amp[i]
			}
			spec := s.plan.ForwardInto(s.fs, s.acc)
			fft.AccumulateConj(acc, spec, s.kffts[k])
			s.clock.Charge(simclock.CostConvolution, 1)
		}
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
	tz := s.P.ThetaZ
	for i := range gradI {
		gradI[i] = gradT[i] * tz * t[i] * (1 - t[i])
	}
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
// sat, which pixels were clamped (the gradient is zero there).
func ComposeDouble(t1, t2, out []float64, sat []bool) {
	for i := range out {
		v := t1[i] + t2[i]
		if v > 1 {
			out[i] = 1
			if sat != nil {
				sat[i] = true
			}
		} else {
			out[i] = v
			if sat != nil {
				sat[i] = false
			}
		}
	}
}
