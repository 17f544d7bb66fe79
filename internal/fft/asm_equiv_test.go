package fft

import (
	"math"
	"math/rand"
	"testing"
)

// The vector engine's contract is bit-identity with the scalar reference on
// finite inputs, not just closeness (see asm.go). Every test here compares
// through Float64bits so a single flipped sign of a zero or one differently
// rounded product fails loudly. The whole file is skipped on hosts that
// cannot run the vector kernels; the scalar reference is then the only
// engine and there is nothing to compare.

func requireASM(t testing.TB) {
	t.Helper()
	if !haveFFTASM {
		t.Skip("vector engine unavailable on this host")
	}
}

func bitsEqual(a, b complex128) bool {
	return math.Float64bits(real(a)) == math.Float64bits(real(b)) &&
		math.Float64bits(imag(a)) == math.Float64bits(imag(b))
}

func diffComplex(t *testing.T, label string, got, want []complex128) {
	t.Helper()
	for i := range want {
		if !bitsEqual(got[i], want[i]) {
			t.Fatalf("%s: bin %d differs bitwise: vector %v (%x,%x) scalar %v (%x,%x)",
				label, i, got[i],
				math.Float64bits(real(got[i])), math.Float64bits(imag(got[i])),
				want[i],
				math.Float64bits(real(want[i])), math.Float64bits(imag(want[i])))
		}
	}
}

func diffFloat(t *testing.T, label string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: sample %d differs bitwise: vector %v (%x) scalar %v (%x)",
				label, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

func randComplex(rng *rand.Rand, n int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

// planSizes is every transform length the plan cache can produce: NextPow2
// of image+kernel padding is always a power of two, and the packed rfft
// core halves it once more, so powers of two from 1 to 4096 cover the whole
// reachable family (224-class rasters pad to 256; tests go far beyond).
var planSizes = []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096}

// TestVecTransformBitIdentical pins the butterfly kernel: for every
// reachable size, forward and inverse, the vector stage path produces the
// same bits as the scalar stage loop.
func TestVecTransformBitIdentical(t *testing.T) {
	requireASM(t)
	rng := rand.New(rand.NewSource(101))
	for _, n := range planSizes {
		tw := tablesFor(n)
		for _, inverse := range []bool{false, true} {
			ref := randComplex(rng, n)
			vec := append([]complex128(nil), ref...)
			transformWith(ref, tw, inverse, false)
			transformWith(vec, tw, inverse, true)
			label := "fwd"
			if inverse {
				label = "inv"
			}
			diffComplex(t, label+"/"+itoa(n), vec, ref)
		}
	}
}

// TestVecRFFTRowBitIdentical pins pack, untangle, repack, and unpack across
// the reachable sizes, including short source rows (the zero-extended tail
// every padded raster row has), odd source lengths (the pack boundary pair),
// and the tiny sizes whose pair loop is shorter than one vector.
func TestVecRFFTRowBitIdentical(t *testing.T) {
	requireASM(t)
	rng := rand.New(rand.NewSource(202))
	for _, n := range planSizes[1:] { // rfft needs n >= 2
		twM := tablesFor(maxInt(n/2, 1))
		twN := tablesFor(n)
		srcLens := []int{n, n - 1, n / 2, n/2 + 1, 1, 0}
		for _, sl := range srcLens {
			if sl < 0 {
				continue
			}
			src := randImage(rng, sl)
			ref := make([]complex128, rfftLen(n))
			vec := make([]complex128, rfftLen(n))
			rfftRow(ref, src, twM, twN, false)
			rfftRow(vec, src, twM, twN, true)
			label := itoa(n) + "/src" + itoa(sl)
			diffComplex(t, "rfft/"+label, vec, ref)

			// irfftRow destroys its input; feed each engine its own copy of
			// the same spectrum.
			specRef := append([]complex128(nil), ref...)
			specVec := append([]complex128(nil), ref...)
			outRef := make([]float64, n)
			outVec := make([]float64, n)
			irfftRow(outRef, specRef, twM, twN, false)
			irfftRow(outVec, specVec, twM, twN, true)
			diffFloat(t, "irfft/"+label, outVec, outRef)
		}
	}
}

// TestVecPointwiseBitIdentical pins the pointwise kernels at every
// sub-vector length and at odd lengths that exercise the peeled tail bin.
func TestVecPointwiseBitIdentical(t *testing.T) {
	requireASM(t)
	rng := rand.New(rand.NewSource(303))
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 33, 1000, 1023} {
		a := randComplex(rng, n)
		b := randComplex(rng, n)
		ref := make([]complex128, n)
		vec := make([]complex128, n)

		for i := range ref {
			ref[i] = a[i] * b[i]
		}
		cmulInto(vec, a, b)
		diffComplex(t, "cmul/"+itoa(n), vec, ref)

		for i := range ref {
			k := b[i]
			ref[i] = a[i] * complex(real(k), -imag(k))
		}
		cmulConjInto(vec, a, b)
		diffComplex(t, "cmulconj/"+itoa(n), vec, ref)

		acc0 := randComplex(rng, n)
		accRef := append([]complex128(nil), acc0...)
		accVec := append([]complex128(nil), acc0...)
		for i, k := range b {
			accRef[i] += a[i] * complex(real(k), -imag(k))
		}
		accumConjInto(accVec, a, b)
		diffComplex(t, "accumconj/"+itoa(n), accVec, accRef)
	}
}

// TestVecPlanEngineBitIdentical compares whole convolution plans built on
// the two engines — kernel transform, forward spectrum, convolve, correlate,
// and the fused spectral accumulation — and the complex oracle run on each.
// This is the end-to-end form of the contract: an optimizer run cannot tell
// the engines apart by output bits.
func TestVecPlanEngineBitIdentical(t *testing.T) {
	requireASM(t)
	rng := rand.New(rand.NewSource(404))
	w, h, kw, kh := 37, 29, 7, 5 // non-square, non-power-of-two image
	img := randImage(rng, w*h)
	kernel := randImage(rng, kw*kh)
	ps, pv := newPlan(w, h, kw, kh, false), newPlan(w, h, kw, kh, true)
	outS := make([]float64, w*h)
	outV := make([]float64, w*h)

	t.Run("mode=real", func(t *testing.T) {
		kfS := ps.TransformKernel(kernel)
		kfV := pv.TransformKernel(kernel)
		diffComplex(t, "kernel spectrum", kfV, kfS)

		specS := append([]complex128(nil), ps.Forward(img)...)
		specV := append([]complex128(nil), pv.Forward(img)...)
		diffComplex(t, "forward spectrum", specV, specS)

		ps.Convolve(img, kfS, outS)
		pv.Convolve(img, kfV, outV)
		diffFloat(t, "convolve", outV, outS)
		ps.Correlate(img, kfS, outS)
		pv.Correlate(img, kfV, outV)
		diffFloat(t, "correlate", outV, outS)

		// Fused adjoint path: accumulate conj products on each engine (the
		// scalar side spelled out, as AccumulateConj and MulConj run the
		// host's engine), then inverse-transform through the matching plan.
		accS := make([]complex128, ps.SpecLen())
		accV := make([]complex128, pv.SpecLen())
		for i, k := range kfS {
			accS[i] += specS[i] * complex(real(k), -imag(k))
			specS[i] = specS[i] * complex(real(k), -imag(k))
		}
		AccumulateConj(accV, specV, kfV)
		MulConj(specV, specV, kfV)
		diffComplex(t, "accumulate-conj", accV, accS)
		diffComplex(t, "mul-conj", specV, specS)
		ps.InverseSpec(ps.NewScratch(), accS, outS)
		pv.InverseSpec(pv.NewScratch(), accV, outV)
		diffFloat(t, "inverse-spec", outV, outS)
	})
	t.Run("mode=complex", func(t *testing.T) {
		oS, oV := newComplexOracle(ps, false), newComplexOracle(pv, true)
		kfS, kfV := oS.kernel(kernel), oV.kernel(kernel)
		diffComplex(t, "kernel spectrum", kfV, kfS)
		diffComplex(t, "forward spectrum", oV.forward(img), oS.forward(img))
		for _, conj := range []bool{false, true} {
			oS.apply(oS.forward(img), kfS, outS, conj)
			oV.apply(oV.forward(img), kfV, outV, conj)
			diffFloat(t, "apply", outV, outS)
		}
	})
}

// FuzzVecEquivalence drives the rfft row pipeline and the pointwise kernels
// with fuzzer-chosen sizes, source cuts, and data seeds, asserting bitwise
// engine equality every time. The seeds cover the structural edges (smallest
// sizes, odd cuts, sub-vector tails); the fuzzer explores from there.
func FuzzVecEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(1), uint8(0))
	f.Add(int64(2), uint8(2), uint8(1))
	f.Add(int64(3), uint8(4), uint8(3))
	f.Add(int64(4), uint8(8), uint8(255))
	f.Add(int64(5), uint8(12), uint8(7))
	f.Fuzz(func(t *testing.T, seed int64, sizeExp, cut uint8) {
		requireASM(t)
		n := 1 << (int(sizeExp)%12 + 1) // 2 .. 4096
		rng := rand.New(rand.NewSource(seed))
		srcLen := n - int(cut)%n
		src := randImage(rng, srcLen)

		twM := tablesFor(maxInt(n/2, 1))
		twN := tablesFor(n)
		ref := make([]complex128, rfftLen(n))
		vec := make([]complex128, rfftLen(n))
		rfftRow(ref, src, twM, twN, false)
		rfftRow(vec, src, twM, twN, true)
		diffComplex(t, "fuzz rfft", vec, ref)

		other := randComplex(rng, len(ref))
		accRef := append([]complex128(nil), ref...)
		accVec := append([]complex128(nil), ref...)
		for i, k := range other {
			accRef[i] += ref[i] * complex(real(k), -imag(k))
		}
		accumConjInto(accVec, vec, other)
		diffComplex(t, "fuzz accumconj", accVec, accRef)

		outRef := make([]float64, n)
		outVec := make([]float64, n)
		irfftRow(outRef, accRef, twM, twN, false)
		irfftRow(outVec, accVec, twM, twN, true)
		diffFloat(t, "fuzz irfft", outVec, outRef)
	})
}

// TestVecKernelsZeroAlloc pins the allocation contract of the vector entry
// points themselves: the asm wrappers and the vec transform paths must not
// allocate once tables exist. (TestHotPathZeroAlloc covers the plan methods
// under whichever engine the host default selects.)
func TestVecKernelsZeroAlloc(t *testing.T) {
	requireASM(t)
	if raceEnabled {
		t.Skip("sync.Pool randomly drops puts under the race detector")
	}
	rng := rand.New(rand.NewSource(505))
	const n = 256
	x := randComplex(rng, n)
	a := randComplex(rng, n)
	b := randComplex(rng, n)
	dst := make([]complex128, n)
	tw := tablesFor(n)
	twM := tablesFor(n / 2)
	spec := make([]complex128, rfftLen(n))
	src := randImage(rng, n)
	real0 := make([]float64, n)

	cases := map[string]func(){
		"transformWith": func() { transformWith(x, tw, false, true) },
		"cmulInto":      func() { cmulInto(dst, a, b) },
		"cmulConjInto":  func() { cmulConjInto(dst, a, b) },
		"accumConjInto": func() { accumConjInto(dst, a, b) },
		"rfftRow":       func() { rfftRow(spec, src, twM, tw, true) },
		"irfftRow":      func() { irfftRow(real0, spec, twM, tw, true) },
	}
	for name, fn := range cases {
		if allocs := testing.AllocsPerRun(20, fn); allocs != 0 {
			t.Errorf("%s allocates %.1f objects per call, want 0", name, allocs)
		}
	}
}

// TestVecApplySpecZeroAlloc pins the plan hot path explicitly on the vector
// engine, independent of the host default.
func TestVecApplySpecZeroAlloc(t *testing.T) {
	requireASM(t)
	if raceEnabled {
		t.Skip("sync.Pool randomly drops puts under the race detector")
	}
	rng := rand.New(rand.NewSource(606))
	w, h, kw, kh := 32, 32, 7, 7
	img := randImage(rng, w*h)
	p := newPlan(w, h, kw, kh, true)
	kf := p.TransformKernel(randImage(rng, kw*kh))
	out := make([]float64, w*h)
	s := p.NewScratch()
	spec := p.ForwardInto(s, img)
	if allocs := testing.AllocsPerRun(20, func() {
		p.ApplySpecWith(s, spec, kf, out, true)
	}); allocs != 0 {
		t.Errorf("vector ApplySpecWith allocates %.1f objects per call, want 0", allocs)
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
