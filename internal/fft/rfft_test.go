package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// naiveDFT is the O(n^2) reference transform.
func naiveDFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var s complex128
		for j := 0; j < n; j++ {
			ang := -2 * math.Pi * float64(k) / float64(n) * float64(j)
			s += x[j] * cmplx.Exp(complex(0, ang))
		}
		out[k] = s
	}
	return out
}

// TestRoundTripAccuracy4096 is the twiddle-accuracy property the table
// overhaul exists for: at n=4096 the multiplicative recurrence the old
// transform used accumulates error past 1e-12; the Sincos tables stay well
// below it.
func TestRoundTripAccuracy4096(t *testing.T) {
	const n = 4096
	rng := rand.New(rand.NewSource(1))
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	orig := append([]complex128(nil), x...)
	FFT(x)
	IFFT(x)
	for i := range x {
		if d := cmplx.Abs(x[i] - orig[i]); d > 1e-12 {
			t.Fatalf("complex round-trip error %g at %d exceeds 1e-12", d, i)
		}
	}
}

func TestRFFTRoundTripAccuracy4096(t *testing.T) {
	const n = 4096
	rng := rand.New(rand.NewSource(2))
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	twM, twN := tablesFor(n/2), tablesFor(n)
	spec := make([]complex128, n/2+1)
	rfftRow(spec, x, twM, twN, false)
	back := make([]float64, n)
	irfftRow(back, spec, twM, twN, false)
	for i := range x {
		if d := math.Abs(back[i] - x[i]); d > 1e-12 {
			t.Fatalf("real round-trip error %g at %d exceeds 1e-12", d, i)
		}
	}
}

// TestRFFTMatchesDFT checks the half spectrum against the naive DFT of the
// same real signal across sizes, including the degenerate ones.
func TestRFFTMatchesDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 2, 4, 8, 16, 64, 256} {
		x := make([]float64, n)
		cx := make([]complex128, n)
		for i := range x {
			x[i] = rng.NormFloat64()
			cx[i] = complex(x[i], 0)
		}
		want := naiveDFT(cx)
		got := make([]complex128, n/2+1)
		rfftRow(got, x, tablesFor(max(n/2, 1)), tablesFor(n), false)
		for k := range got {
			if d := cmplx.Abs(got[k] - want[k]); d > 1e-9 {
				t.Fatalf("n=%d: RFFT[%d] = %v, DFT = %v (|diff| %g)", n, k, got[k], want[k], d)
			}
		}
	}
}

// TestFFTMatchesDFTSizes is the complex-path counterpart over the same size
// sweep (the historical test pinned n=16 only).
func TestFFTMatchesDFTSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{1, 2, 8, 32, 128} {
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		want := naiveDFT(x)
		got := append([]complex128(nil), x...)
		FFT(got)
		for k := range got {
			if cmplx.Abs(got[k]-want[k]) > 1e-9 {
				t.Fatalf("n=%d: FFT[%d] = %v, DFT = %v", n, k, got[k], want[k])
			}
		}
	}
}

// TestRFFTParseval checks energy conservation on the half spectrum: interior
// bins count twice (they stand for a conjugate pair), the DC and Nyquist
// bins once.
func TestRFFTParseval(t *testing.T) {
	const n = 512
	rng := rand.New(rand.NewSource(5))
	x := make([]float64, n)
	var tEnergy float64
	for i := range x {
		x[i] = rng.NormFloat64()
		tEnergy += x[i] * x[i]
	}
	spec := make([]complex128, n/2+1)
	rfftRow(spec, x, tablesFor(n/2), tablesFor(n), false)
	var fEnergy float64
	for k, v := range spec {
		e := real(v)*real(v) + imag(v)*imag(v)
		if k == 0 || k == n/2 {
			fEnergy += e
		} else {
			fEnergy += 2 * e
		}
	}
	if math.Abs(fEnergy/float64(n)-tEnergy) > 1e-9*tEnergy {
		t.Fatalf("Parseval violated: %g vs %g", fEnergy/float64(n), tEnergy)
	}
}

// convEngine is one convolution engine under test: conv writes the
// convolution (correlation when conj) of img with kernel into out.
type convEngine struct {
	name string
	conv func(img, kernel, out []float64, conj bool)
}

// bothEngines returns the real-input Plan p and the full-complex oracle on
// its geometry.
func bothEngines(p *Plan) []convEngine {
	o := newComplexOracle(p, haveFFTASM)
	return []convEngine{
		{"real", func(img, kernel, out []float64, conj bool) {
			p.ApplySpec(p.Forward(img), p.TransformKernel(kernel), out, conj)
		}},
		{"complex", func(img, kernel, out []float64, conj bool) {
			o.apply(o.forward(img), o.kernel(kernel), out, conj)
		}},
	}
}

// TestPlanBothModesMatchDirect runs the direct-convolution oracle against
// both engines: the Plan and the complex engine it is pinned to.
func TestPlanBothModesMatchDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	w, h, kw, kh := 23, 17, 9, 5
	img := randImage(rng, w*h)
	kernel := randImage(rng, kw*kh)
	for _, e := range bothEngines(NewPlan(w, h, kw, kh)) {
		t.Run(e.name, func(t *testing.T) {
			got := make([]float64, w*h)
			want := make([]float64, w*h)
			e.conv(img, kernel, got, false)
			DirectConvolve(img, w, h, kernel, kw, kh, want)
			for i := range want {
				if math.Abs(got[i]-want[i]) > 1e-9 {
					t.Fatalf("convolve mismatch at %d: %g vs %g", i, got[i], want[i])
				}
			}
			e.conv(img, kernel, got, true)
			DirectCorrelate(img, w, h, kernel, kw, kh, want)
			for i := range want {
				if math.Abs(got[i]-want[i]) > 1e-9 {
					t.Fatalf("correlate mismatch at %d: %g vs %g", i, got[i], want[i])
				}
			}
		})
	}
}

// TestPlanModesAgree compares the real-input Plan with the complex oracle on
// the same inputs — the field-level half of the golden-output contract
// (<= 1e-9).
func TestPlanModesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	w, h, kw, kh := 40, 28, 11, 7
	img := randImage(rng, w*h)
	kernel := randImage(rng, kw*kh)
	engines := bothEngines(NewPlan(w, h, kw, kh))
	for _, conj := range []bool{false, true} {
		re, cx := make([]float64, w*h), make([]float64, w*h)
		engines[0].conv(img, kernel, re, conj)
		engines[1].conv(img, kernel, cx, conj)
		for i := range re {
			if d := math.Abs(re[i] - cx[i]); d > 1e-9 {
				t.Fatalf("conj=%v: engines disagree at %d by %g", conj, i, d)
			}
		}
	}
}

// TestInverseSpecFusedMatchesPerKernel verifies the fused-gradient identity
// the simulator's backward pass relies on: one inverse of the accumulated
// products equals the sum of per-kernel correlations.
func TestInverseSpecFusedMatchesPerKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	w, h, kw, kh := 26, 22, 7, 7
	p := NewPlan(w, h, kw, kh)
	const nk = 3
	imgs := make([][]float64, nk)
	kernels := make([][]float64, nk)
	for k := range imgs {
		imgs[k] = randImage(rng, w*h)
		kernels[k] = randImage(rng, kw*kh)
	}
	// check compares fused against the sum of the engine's correlations.
	check := func(t *testing.T, e convEngine, fused func(out []float64)) {
		want := make([]float64, w*h)
		tmp := make([]float64, w*h)
		for k := range imgs {
			e.conv(imgs[k], kernels[k], tmp, true)
			for i := range want {
				want[i] += tmp[i]
			}
		}
		got := make([]float64, w*h)
		fused(got)
		for i := range want {
			if d := math.Abs(got[i] - want[i]); d > 1e-9 {
				t.Fatalf("fused gradient differs at %d by %g", i, d)
			}
		}
	}
	engines := bothEngines(p)
	t.Run("real", func(t *testing.T) {
		check(t, engines[0], func(out []float64) {
			s := p.NewScratch()
			acc := make([]complex128, p.SpecLen())
			for k := range imgs {
				AccumulateConj(acc, p.ForwardInto(s, imgs[k]), p.TransformKernel(kernels[k]))
			}
			p.InverseSpec(s, acc, out)
		})
	})
	t.Run("complex", func(t *testing.T) {
		o := newComplexOracle(p, haveFFTASM)
		check(t, engines[1], func(out []float64) {
			acc := make([]complex128, len(o.spec))
			for k := range imgs {
				AccumulateConj(acc, o.forward(imgs[k]), o.kernel(kernels[k]))
			}
			o.inverse(acc, out)
		})
	})
}

func TestAccumulateConjLengthPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	AccumulateConj(make([]complex128, 4), make([]complex128, 4), make([]complex128, 3))
}

func TestSpecLenHalvedInRealMode(t *testing.T) {
	p := NewPlan(224, 224, 31, 31)
	if want := (p.PW/2 + 1) * p.PH; p.SpecLen() != want {
		t.Fatalf("real SpecLen = %d, want %d", p.SpecLen(), want)
	}
	full := p.PW * p.PH
	if 2*p.SpecLen() >= 3*full/2 {
		t.Fatalf("half spectrum %d not roughly half of %d", p.SpecLen(), full)
	}
}

// TestFFT2DZeroAllocSteadyState: the complex 2-D entry points route their
// column strip through a pool instead of allocating per call.
func TestFFT2DZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool randomly drops puts under the race detector")
	}
	data := make([]complex128, 64*32)
	FFT2D(data, 64, 32) // warm the pool and the tables
	if allocs := testing.AllocsPerRun(50, func() {
		FFT2D(data, 64, 32)
		IFFT2D(data, 64, 32)
	}); allocs != 0 {
		t.Errorf("FFT2D+IFFT2D allocate %.1f objects per call, want 0", allocs)
	}
}

// TestInverseSpecZeroAlloc pins the fused-backward entry to the same
// zero-alloc contract as the rest of the hot path.
func TestInverseSpecZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool randomly drops puts under the race detector")
	}
	rng := rand.New(rand.NewSource(9))
	p := NewPlan(32, 32, 7, 7)
	img := randImage(rng, 32*32)
	kf := p.TransformKernel(randImage(rng, 7*7))
	s := p.NewScratch()
	acc := make([]complex128, p.SpecLen())
	out := make([]float64, 32*32)
	if allocs := testing.AllocsPerRun(20, func() {
		AccumulateConj(acc, p.ForwardInto(s, img), kf)
		p.InverseSpec(s, acc, out)
	}); allocs != 0 {
		t.Errorf("fused accumulate+inverse allocates %.1f objects per call, want 0", allocs)
	}
}

// BenchmarkFFTPlanConvolve224 and its Complex twin A/B the real-input Plan
// against the full-complex engine it replaced, on one 224x224 convolution.
func BenchmarkFFTPlanConvolve224(b *testing.B) {
	p, img, kernel, out := benchConvolveSetup()
	kf := p.TransformKernel(kernel)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Convolve(img, kf, out)
	}
}

func BenchmarkFFTPlanConvolve224Complex(b *testing.B) {
	p, img, kernel, out := benchConvolveSetup()
	o := newComplexOracle(p, haveFFTASM)
	kf := o.kernel(kernel)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.apply(o.forward(img), kf, out, false)
	}
}

func benchConvolveSetup() (p *Plan, img, kernel, out []float64) {
	w, h := 224, 224
	img = make([]float64, w*h)
	for i := range img {
		img[i] = float64(i%13) / 13
	}
	kernel = make([]float64, 31*31)
	for i := range kernel {
		kernel[i] = 1.0 / float64(len(kernel))
	}
	return NewPlan(w, h, 31, 31), img, kernel, make([]float64, w*h)
}
