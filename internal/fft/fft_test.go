package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNextPow2(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 17: 32, 224: 256, 257: 512}
	for in, want := range cases {
		if got := NextPow2(in); got != want {
			t.Errorf("NextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestIsPow2(t *testing.T) {
	for _, n := range []int{1, 2, 4, 1024} {
		if !IsPow2(n) {
			t.Errorf("IsPow2(%d) = false", n)
		}
	}
	for _, n := range []int{0, -4, 3, 6, 1023} {
		if IsPow2(n) {
			t.Errorf("IsPow2(%d) = true", n)
		}
	}
}

func TestFFTPanicsOnNonPow2(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FFT(make([]complex128, 3))
}

func TestFFTKnownValues(t *testing.T) {
	// FFT of an impulse is all ones.
	x := make([]complex128, 8)
	x[0] = 1
	FFT(x)
	for i, v := range x {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Fatalf("impulse FFT[%d] = %v", i, v)
		}
	}
	// FFT of a constant is an impulse of height N.
	y := []complex128{1, 1, 1, 1}
	FFT(y)
	if cmplx.Abs(y[0]-4) > 1e-12 || cmplx.Abs(y[1]) > 1e-12 || cmplx.Abs(y[2]) > 1e-12 || cmplx.Abs(y[3]) > 1e-12 {
		t.Fatalf("constant FFT = %v", y)
	}
}

func TestFFTMatchesDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 16
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	want := make([]complex128, n)
	for k := 0; k < n; k++ {
		var s complex128
		for j := 0; j < n; j++ {
			ang := -2 * math.Pi * float64(k*j) / float64(n)
			s += x[j] * cmplx.Exp(complex(0, ang))
		}
		want[k] = s
	}
	got := append([]complex128(nil), x...)
	FFT(got)
	for k := range want {
		if cmplx.Abs(got[k]-want[k]) > 1e-9 {
			t.Fatalf("FFT[%d] = %v, DFT = %v", k, got[k], want[k])
		}
	}
}

func TestRoundTripQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 << (1 + rng.Intn(7))
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		orig := append([]complex128(nil), x...)
		FFT(x)
		IFFT(x)
		for i := range x {
			if cmplx.Abs(x[i]-orig[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLinearity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 32
	a := make([]complex128, n)
	b := make([]complex128, n)
	sum := make([]complex128, n)
	for i := range a {
		a[i] = complex(rng.NormFloat64(), 0)
		b[i] = complex(rng.NormFloat64(), 0)
		sum[i] = 2*a[i] + 3*b[i]
	}
	FFT(a)
	FFT(b)
	FFT(sum)
	for i := range sum {
		if cmplx.Abs(sum[i]-(2*a[i]+3*b[i])) > 1e-9 {
			t.Fatalf("linearity broken at %d", i)
		}
	}
}

func TestParseval(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 64
	x := make([]complex128, n)
	var tEnergy float64
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		tEnergy += real(x[i])*real(x[i]) + imag(x[i])*imag(x[i])
	}
	FFT(x)
	var fEnergy float64
	for _, v := range x {
		fEnergy += real(v)*real(v) + imag(v)*imag(v)
	}
	if math.Abs(fEnergy/float64(n)-tEnergy) > 1e-9*tEnergy {
		t.Fatalf("Parseval violated: %g vs %g", fEnergy/float64(n), tEnergy)
	}
}

func TestFFT2DRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	w, h := 8, 16
	data := make([]complex128, w*h)
	for i := range data {
		data[i] = complex(rng.NormFloat64(), 0)
	}
	orig := append([]complex128(nil), data...)
	FFT2D(data, w, h)
	IFFT2D(data, w, h)
	for i := range data {
		if cmplx.Abs(data[i]-orig[i]) > 1e-9 {
			t.Fatalf("2D roundtrip failed at %d", i)
		}
	}
}

func TestFFT2DPanicsOnBadLen(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FFT2D(make([]complex128, 7), 4, 2)
}

func randImage(rng *rand.Rand, n int) []float64 {
	img := make([]float64, n)
	for i := range img {
		img[i] = rng.Float64()
	}
	return img
}

func TestConvolveMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	w, h, kw, kh := 20, 14, 7, 5
	img := randImage(rng, w*h)
	kernel := randImage(rng, kw*kh)
	p := NewPlan(w, h, kw, kh)
	kf := p.TransformKernel(kernel)
	got := make([]float64, w*h)
	p.Convolve(img, kf, got)
	want := make([]float64, w*h)
	DirectConvolve(img, w, h, kernel, kw, kh, want)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("convolve mismatch at %d: %g vs %g", i, got[i], want[i])
		}
	}
}

func TestCorrelateMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	w, h, kw, kh := 16, 16, 5, 7
	img := randImage(rng, w*h)
	kernel := randImage(rng, kw*kh)
	p := NewPlan(w, h, kw, kh)
	kf := p.TransformKernel(kernel)
	got := make([]float64, w*h)
	p.Correlate(img, kf, got)
	want := make([]float64, w*h)
	DirectCorrelate(img, w, h, kernel, kw, kh, want)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("correlate mismatch at %d: %g vs %g", i, got[i], want[i])
		}
	}
}

func TestConvolveImpulseKernel(t *testing.T) {
	// Convolution with a centered impulse is the identity.
	rng := rand.New(rand.NewSource(9))
	w, h := 12, 12
	img := randImage(rng, w*h)
	kernel := make([]float64, 9)
	kernel[4] = 1
	p := NewPlan(w, h, 3, 3)
	kf := p.TransformKernel(kernel)
	out := make([]float64, w*h)
	p.Convolve(img, kf, out)
	for i := range img {
		if math.Abs(out[i]-img[i]) > 1e-10 {
			t.Fatalf("impulse convolution not identity at %d", i)
		}
	}
}

func TestConvolveAdjointProperty(t *testing.T) {
	// <K*a, b> == <a, K^T b> where K^T is correlation: the identity the ILT
	// gradient derivation depends on.
	rng := rand.New(rand.NewSource(17))
	w, h, kw, kh := 10, 9, 5, 3
	a := randImage(rng, w*h)
	b := randImage(rng, w*h)
	kernel := randImage(rng, kw*kh)
	p := NewPlan(w, h, kw, kh)
	kf := p.TransformKernel(kernel)
	ka := make([]float64, w*h)
	p.Convolve(a, kf, ka)
	ktb := make([]float64, w*h)
	p.Correlate(b, kf, ktb)
	var lhs, rhs float64
	for i := range a {
		lhs += ka[i] * b[i]
		rhs += a[i] * ktb[i]
	}
	if math.Abs(lhs-rhs) > 1e-9*(math.Abs(lhs)+1) {
		t.Fatalf("adjoint identity broken: %g vs %g", lhs, rhs)
	}
}

func TestPlanPanics(t *testing.T) {
	for _, c := range [][4]int{{0, 4, 3, 3}, {4, 4, 2, 3}, {4, 4, 3, 4}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewPlan(%v) did not panic", c)
				}
			}()
			NewPlan(c[0], c[1], c[2], c[3])
		}()
	}
}

func TestTransformKernelLengthPanic(t *testing.T) {
	p := NewPlan(8, 8, 3, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	p.TransformKernel(make([]float64, 4))
}

func BenchmarkFFT2D256(b *testing.B) {
	data := make([]complex128, 256*256)
	for i := range data {
		data[i] = complex(float64(i%17), 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FFT2D(data, 256, 256)
	}
}

func BenchmarkConvolve224(b *testing.B) {
	w, h := 224, 224
	img := make([]float64, w*h)
	kernel := make([]float64, 31*31)
	for i := range kernel {
		kernel[i] = 1.0 / float64(len(kernel))
	}
	p := NewPlan(w, h, 31, 31)
	kf := p.TransformKernel(kernel)
	out := make([]float64, w*h)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Convolve(img, kf, out)
	}
}

// TestCPUFeaturesMatchProbe: bench records learn the host's vector
// capabilities from CPUFeatures alone, so it must list exactly what the
// probe found, FMA3 included (the litho sigmoid kernel needs it), and
// AVX-512F exactly when HasAVX512F, the flag the GEMM engine's tile
// choice reads. AVX-512F state implies the YMM state AVX needs.
func TestCPUFeaturesMatchProbe(t *testing.T) {
	probed := map[string]bool{"avx": haveAVX, "avx2": haveAVX2, "fma": haveFMA, "avx512f": HasAVX512F()}
	listed := map[string]bool{}
	for _, f := range CPUFeatures() {
		if _, ok := probed[f]; !ok || listed[f] {
			t.Fatalf("CPUFeatures() = %q: unknown or repeated %q", CPUFeatures(), f)
		}
		listed[f] = true
	}
	for f, have := range probed {
		if listed[f] != have {
			t.Errorf("CPUFeatures() = %q, probe says %s = %v", CPUFeatures(), f, have)
		}
	}
	if haveAVX512F && !haveAVX {
		t.Errorf("probe reports AVX-512F without AVX")
	}
}
