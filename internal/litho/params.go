// Package litho implements the forward lithography model of the LDMO
// framework: a sum-of-coherent-systems (SOCS) aerial-image simulator with the
// paper's sigmoid mask and resist relaxations (Eq. 1-3 of Zhong et al.,
// DAC 2020) and the double-patterning image composition T = min(T1+T2, 1).
//
// The paper inherits the optical kernels of the ICCAD'17 unified framework
// (industrial Hopkins kernels). Those tables are proprietary, so this package
// substitutes a synthetic kernel bank built from Gaussian point-spread
// functions whose physical radius is set by the 193nm/NA=1.35 immersion
// process the paper targets. The ILT gradient structure is unchanged; see
// DESIGN.md, substitution table row 1.
package litho

import (
	"fmt"
	"math"

	"ldmo/internal/fft"
)

// Params collects the process constants of the simulator. All fields mirror
// either a constant named in the paper or a property of the substituted
// optical model.
type Params struct {
	// ThetaM is the slope of the sigmoid that relaxes the binary mask M
	// into the unbounded parameter P (paper Eq. 1). Paper value: 8.
	ThetaM float64
	// ThetaZ is the slope of the constant-threshold resist sigmoid
	// (paper Eq. 2). Paper value: 120.
	ThetaZ float64
	// Ith is the resist intensity threshold (paper Eq. 2). Paper value:
	// 0.039, quoted against the authors' unnormalized industrial kernels.
	Ith float64
	// Resolution is the raster resolution in nanometers per pixel.
	Resolution int
	// Sigma is the 1/e radius of the primary optical kernel in nanometers.
	// For 193nm immersion (NA 1.35) the point-spread half-width is about
	// k1*lambda/NA ~ 25-40nm.
	Sigma float64
	// DefocusSigma is the radius of the secondary (partial-coherence /
	// defocus tail) kernel in nanometers.
	DefocusSigma float64
	// DefocusWeight is the SOCS weight of the secondary kernel; the
	// primary kernel carries 1-DefocusWeight.
	DefocusWeight float64
	// Gain scales the kernel bank so that a fully exposed open field
	// reaches aerial intensity Gain (the exposure dose). Intensity is
	// linear in Gain, so threshold and gain can be rescaled together
	// without moving the printed contour; PaperParams uses this to apply
	// the paper's Ith = 0.039 verbatim.
	Gain float64
	// KernelSupport is the kernel truncation radius in units of the
	// larger sigma; 3 keeps >99.7% of the Gaussian mass.
	KernelSupport float64
	// PrintThreshold is the resist-image level above which a pixel counts
	// as printed when binarizing T. With the sigmoid resist model of
	// Eq. 2, 0.5 corresponds exactly to the aerial contour I = Ith.
	PrintThreshold float64
}

// DefaultParams returns the parameter set used by the experiments: the
// paper's sigmoid slopes over the calibrated synthetic kernel bank. The
// kernel widths and threshold were jointly calibrated so that (a) an
// isolated 65nm contact prints at drawn size, (b) a same-mask SP pair
// (65nm gap) bridges, and (c) same-mask VP pairs (95nm gap) leave residual
// edge distortion that 29 ILT iterations cannot fully remove — the spacing
// regime the paper's nmin/nmax bands describe.
func DefaultParams() Params {
	return Params{
		ThetaM:         8,
		ThetaZ:         120,
		Ith:            0.032,
		Resolution:     4,
		Sigma:          52,
		DefocusSigma:   73,
		DefocusWeight:  0.1,
		Gain:           1,
		KernelSupport:  3,
		PrintThreshold: 0.5,
	}
}

// FastParams returns a coarsened profile (8nm pixels) used for training-set
// labeling and quick tests; the optical radii are unchanged, only the raster
// is coarser, so print behaviour (bridging bands, edge placement) matches the
// default profile to within a pixel.
func FastParams() Params {
	p := DefaultParams()
	p.Resolution = 8
	return p
}

// PaperParams returns the constants exactly as printed in the paper:
// theta_m=8, theta_z=120, Ith=0.039. Aerial intensity scales linearly with
// Gain, so raising the gain by 0.039/0.032 places the printed contour
// exactly where DefaultParams puts it — the paper's threshold is used
// verbatim against a rescaled dose.
func PaperParams() Params {
	p := DefaultParams()
	p.Gain = 0.039 / p.Ith
	p.Ith = 0.039
	return p
}

// Validate reports the first problem with p, or nil.
func (p Params) Validate() error {
	switch {
	case p.ThetaM <= 0:
		return fmt.Errorf("litho: ThetaM must be positive, got %g", p.ThetaM)
	case p.ThetaZ <= 0:
		return fmt.Errorf("litho: ThetaZ must be positive, got %g", p.ThetaZ)
	case p.Ith <= 0:
		return fmt.Errorf("litho: Ith must be positive, got %g", p.Ith)
	case p.Resolution <= 0:
		return fmt.Errorf("litho: Resolution must be positive, got %d", p.Resolution)
	case p.Sigma <= 0:
		return fmt.Errorf("litho: Sigma must be positive, got %g", p.Sigma)
	case p.DefocusWeight < 0 || p.DefocusWeight >= 1:
		return fmt.Errorf("litho: DefocusWeight must be in [0,1), got %g", p.DefocusWeight)
	case p.DefocusWeight > 0 && p.DefocusSigma <= 0:
		return fmt.Errorf("litho: DefocusSigma must be positive when weighted, got %g", p.DefocusSigma)
	case p.Gain <= 0:
		return fmt.Errorf("litho: Gain must be positive, got %g", p.Gain)
	case p.KernelSupport <= 0:
		return fmt.Errorf("litho: KernelSupport must be positive, got %g", p.KernelSupport)
	case p.PrintThreshold <= 0 || p.PrintThreshold >= 1:
		return fmt.Errorf("litho: PrintThreshold must be in (0,1), got %g", p.PrintThreshold)
	}
	return nil
}

// MaskSigmoid applies the paper's Eq. 1 element-wise: M = 1/(1+exp(-tm*P)).
// Where math.Exp takes its FMA branch on an AVX2 host, it runs a four-lane
// kernel whose output equals the scalar math.Exp loop bit for bit.
func MaskSigmoid(thetaM float64, p []float64, m []float64) {
	sigmoidInto(sigmoidVector, m, p, -thetaM, 0)
}

// MaskSigmoidInverse recovers the unbounded parameter P from a mask value in
// (0,1): P = logit(M)/tm. Binary masks are clipped away from {0,1} first.
func MaskSigmoidInverse(thetaM float64, m []float64, p []float64) {
	const clip = 1e-4
	for i, v := range m {
		if v < clip {
			v = clip
		} else if v > 1-clip {
			v = 1 - clip
		}
		p[i] = math.Log(v/(1-v)) / thetaM
	}
}

// MaskSigmoidStep takes one gradient step on the unbounded parameter P of
// Eq. 1: P -= step * dL/dM * dM/dP with dM/dP = thetaM*M*(1-M), given
// grad = dL/dM and the mask m = MaskSigmoid(P). A grad holding NaN or ±Inf
// leaves p untouched, and MaskSigmoidStep reports false.
func MaskSigmoidStep(thetaM, step float64, grad, m, p []float64) bool {
	return maskStep(pixelVector, grad, m, p, step, thetaM)
}

// ResistSigmoid applies the paper's Eq. 2 element-wise:
// T = 1/(1+exp(-tz*(I-Ith))). It runs on the same engine as MaskSigmoid.
func ResistSigmoid(thetaZ, ith float64, aerial []float64, t []float64) {
	sigmoidInto(sigmoidVector, t, aerial, -thetaZ, ith)
}

// sigmoid is the scalar expression both relaxations share:
// 1/(1+exp((v-b)*a)). With b = 0, v-b is v exactly, so a = -tm gives
// Eq. 1's exp(-tm*v) bit for bit.
func sigmoid(v, a, b float64) float64 {
	return 1 / (1 + math.Exp((v-b)*a))
}

// sigmoidVector reports whether MaskSigmoid and ResistSigmoid run the
// vector kernel; otherwise they run the scalar math.Exp loop.
var sigmoidVector = fft.ASMEnabled() && fft.HasFMA() && sigmoidProbeMatches()

// sigmoidProbeMatches reports whether the vector kernel finishes the probe
// vectors of both relaxations, as DefaultParams parameterizes them, with
// every output bit equal to the scalar expression's. The kernel mirrors
// math.Exp's FMA branch, and CPUID alone cannot tell that math.Exp takes it:
// the branch follows the runtime's view of the CPU, which
// GODEBUG=cpu.fma=off changes. So the kernel runs only where this check
// passes, and a Go release that changed math.Exp falls back to the scalar
// loop.
func sigmoidProbeMatches() bool {
	p := DefaultParams()
	for _, ab := range [][2]float64{{-p.ThetaM, 0}, {-p.ThetaZ, p.Ith}} {
		a, b := ab[0], ab[1]
		src := sigmoidProbe(a, b)
		got := make([]float64, len(src))
		if sigmoidAVXFMA(&got[0], &src[0], len(src), a, b) != len(src) {
			return false
		}
		for i, v := range src {
			if math.Float64bits(got[i]) != math.Float64bits(sigmoid(v, a, b)) {
				return false
			}
		}
	}
	return true
}

// sigmoidProbe returns 1024 inputs whose arguments (v-b)*a lie in the
// kernel's range [-708, 709]: alternately an even sweep across the whole
// range, edge to edge, and a golden-ratio sweep of [-16, 16], where the
// sigmoid is steep enough that 1/(1+exp) keeps exp's last bits. Inputs
// whose rounded argument leaves the range are skipped.
func sigmoidProbe(a, b float64) []float64 {
	const n = 1024
	src := make([]float64, 0, n)
	for i := 0; len(src) < n; i++ {
		x := -708 + 1417*float64(i/2)/(n/2-1)
		if i%2 == 1 {
			_, f := math.Modf(float64(i) * 0.6180339887498949)
			x = 32*f - 16
		}
		v := x/a + b
		if y := (v - b) * a; y >= -708 && y <= 709 {
			src = append(src, v)
		}
	}
	return src
}

// sigmoidInto writes sigmoid(src[i], a, b) to dst[i] for every i <
// len(src), on the vector kernel if vec is set. The kernel takes whole
// vectors of four; where it stops at a vector holding an argument outside
// its range, that vector takes the scalar expression and the kernel resumes
// after it. Tails shorter than four are scalar.
func sigmoidInto(vec bool, dst, src []float64, a, b float64) {
	n := len(src)
	if n == 0 {
		return
	}
	_ = dst[n-1] // a short dst panics before anything is written
	i, v := 0, 0
	if vec {
		v = n &^ 3
	}
	for i < v {
		i += sigmoidAVXFMA(&dst[i], &src[i], v-i, a, b)
		for end := min(i+4, v); i < end; i++ {
			dst[i] = sigmoid(src[i], a, b)
		}
	}
	for ; i < n; i++ {
		dst[i] = sigmoid(src[i], a, b)
	}
}
