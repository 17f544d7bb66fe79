package litho

import (
	"math"
	"math/rand"
	"testing"

	"ldmo/internal/fft"
)

// directEval is the brute-force SOCS model: per-kernel fields by
// fft.DirectConvolve, the aerial image and resist built from them, and the
// mask gradient as sum_k w_k * 2 * corr(h_k, gradI*amp_k) by
// fft.DirectCorrelate.
type directEval struct {
	aerial, resist, gradMask []float64
	fields                   [][]float64
}

func directSOCS(s *Simulator, mask, gradT []float64) directEval {
	w, h := s.W, s.H
	e := directEval{
		aerial:   make([]float64, w*h),
		resist:   make([]float64, w*h),
		gradMask: make([]float64, w*h),
	}
	for _, k := range s.bank {
		f := make([]float64, w*h)
		fft.DirectConvolve(mask, w, h, k.Data, k.Size, k.Size, f)
		for i, a := range f {
			e.aerial[i] += k.Weight * a * a
		}
		e.fields = append(e.fields, f)
	}
	s.Resist(e.aerial, e.resist)
	gradI := make([]float64, w*h)
	s.ResistBackward(gradT, e.resist, gradI)
	weighted := make([]float64, w*h)
	tmp := make([]float64, w*h)
	for n, k := range s.bank {
		for i := range weighted {
			weighted[i] = 2 * k.Weight * gradI[i] * e.fields[n][i]
		}
		fft.DirectCorrelate(weighted, w, h, k.Data, k.Size, k.Size, tmp)
		for i := range tmp {
			e.gradMask[i] += tmp[i]
		}
	}
	return e
}

// TestEngineGoldenFields is the field-level half of the golden-output
// contract: the spectral engine reproduces the direct-convolution SOCS
// model's aerial images, per-kernel fields, resist images, and mask
// gradients to 1e-9 — tight enough that every thresholded flow decision
// downstream is unchanged (the decision-level half lives in ilt and core).
func TestEngineGoldenFields(t *testing.T) {
	const w, h = 52, 44
	rng := rand.New(rand.NewSource(77))
	mask := randMask(rng, w*h)
	gradT := randMask(rng, w*h)

	s := newTestSim(t, w, h, 1)
	aerial := make([]float64, w*h)
	resist := make([]float64, w*h)
	gradMask := make([]float64, w*h)
	fields := s.NewFields()
	s.Aerial(mask, aerial, fields)
	s.Resist(aerial, resist)
	gradI := make([]float64, w*h)
	s.ResistBackward(gradT, resist, gradI)
	s.AerialBackward(gradI, fields, gradMask)
	ref := directSOCS(s, mask, gradT)

	cmp := func(name string, got, want []float64) {
		t.Helper()
		for i := range want {
			if d := math.Abs(got[i] - want[i]); d > 1e-9 {
				t.Fatalf("%s differs at %d by %g (spectral %g vs direct %g)", name, i, d, got[i], want[i])
			}
		}
	}
	cmp("aerial", aerial, ref.aerial)
	cmp("resist", resist, ref.resist)
	cmp("gradMask", gradMask, ref.gradMask)
	for k := range ref.fields {
		cmp("field", fields.Amp[k], ref.fields[k])
	}
}

// TestFusedBackwardMatchesDirectAdjoint checks the fused spectral gradient
// against the brute-force adjoint sum_k w_k * 2 * corr(h_k, gradI * amp_k)
// computed with DirectCorrelate.
func TestFusedBackwardMatchesDirectAdjoint(t *testing.T) {
	const w, h = 24, 20
	rng := rand.New(rand.NewSource(79))
	mask := randMask(rng, w*h)
	gradI := randMask(rng, w*h)

	s := newTestSim(t, w, h, 1)
	fields := s.NewFields()
	aerial := make([]float64, w*h)
	s.Aerial(mask, aerial, fields)
	got := make([]float64, w*h)
	s.AerialBackward(gradI, fields, got)

	ks := MaxKernelSize(s.bank)
	want := make([]float64, w*h)
	weighted := make([]float64, w*h)
	tmp := make([]float64, w*h)
	for k, kern := range s.bank {
		for i := range weighted {
			weighted[i] = 2 * kern.Weight * gradI[i] * fields.Amp[k][i]
		}
		fft.DirectCorrelate(weighted, w, h, padKernel(kern, ks), ks, ks, tmp)
		for i := range want {
			want[i] += tmp[i]
		}
	}
	for i := range want {
		if d := math.Abs(got[i] - want[i]); d > 1e-9 {
			t.Fatalf("fused backward differs from direct adjoint at %d by %g", i, d)
		}
	}
}

// TestSimulatorHotPathZeroAlloc asserts the steady-state allocation contract
// of the ILT inner loop: once a simulator exists, the forward and adjoint
// evaluations allocate nothing.
func TestSimulatorHotPathZeroAlloc(t *testing.T) {
	const w, h = 48, 48
	rng := rand.New(rand.NewSource(80))
	mask := randMask(rng, w*h)
	gradI := randMask(rng, w*h)
	s := newTestSim(t, w, h, 1)
	fields := s.NewFields()
	aerial := make([]float64, w*h)
	gradMask := make([]float64, w*h)

	s.Aerial(mask, aerial, fields) // warm all lazy state
	if allocs := testing.AllocsPerRun(10, func() {
		s.Aerial(mask, aerial, fields)
	}); allocs != 0 {
		t.Errorf("Aerial allocates %.1f objects per call, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(10, func() {
		s.AerialBackward(gradI, fields, gradMask)
	}); allocs != 0 {
		t.Errorf("AerialBackward allocates %.1f objects per call, want 0", allocs)
	}
}
