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
			t.Fatalf("%s: bin %d differs bitwise: got %v (%x,%x) want %v (%x,%x)",
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
			t.Fatalf("%s: sample %d differs bitwise: got %v (%x) want %v (%x)",
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

// signedZeros returns n complex values whose components are +0 or -0 at
// random. On such a row every butterfly output is a zero whose sign follows
// IEEE's rules for each operation, so a skipped or reordered operation,
// such as a first stage that leaves out its multiply by tab[0] = (1, ∓0),
// can show in the bits where planted data almost never shows it.
func signedZeros(rng *rand.Rand, n int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(math.Copysign(0, rng.NormFloat64()), math.Copysign(0, rng.NormFloat64()))
	}
	return x
}

// negZeros returns n values of (-0, -0). Through the rfft untangle, most
// sign differences on a random-sign zero row wash out to +0; on this row a
// skipped multiply by tab[0] flips a sign in every first-stage output, and
// rfftRow's bits show it.
func negZeros(n int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(math.Copysign(0, -1), math.Copysign(0, -1))
	}
	return x
}

// packedReals returns the n reals that rfftRow packs into c (even samples
// the real parts, odd samples the imaginary parts), so the planted-data
// generators serve as rfftRow sources too.
func packedReals(c []complex128, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		if v := c[i/2]; i%2 == 0 {
			x[i] = real(v)
		} else {
			x[i] = imag(v)
		}
	}
	return x
}

// planSizes is every transform length the plan cache can produce: NextPow2
// of image+kernel padding is always a power of two, and the packed rfft
// core halves it once more, so powers of two from 1 to 4096 cover the whole
// reachable family (224-class rasters pad to 256; tests go far beyond).
var planSizes = []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096}

// TestVecTransformBitIdentical pins the vector engine's row core: for every
// size it runs at (4 and up), forward and inverse, transformInto's
// bit-reversed reads, fused first sweep and two-stage sweeps produce the
// same bits as the scalar permutation plus stage loop, transformWith. Each
// case runs on a row planted with signed zeros and subnormals and on two
// rows of zeros only: random signs, and all -0.
func TestVecTransformBitIdentical(t *testing.T) {
	requireASM(t)
	rng := rand.New(rand.NewSource(101))
	for _, n := range planSizes {
		if n < 4 {
			continue
		}
		tw := tablesFor(n)
		got := make([]complex128, n)
		for _, inverse := range []bool{false, true} {
			label := "fwd/" + itoa(n)
			if inverse {
				label = "inv/" + itoa(n)
			}
			for _, src := range [][]complex128{plantedComplex(rng, n), signedZeros(rng, n), negZeros(n)} {
				want := append([]complex128(nil), src...)
				transformWith(want, tw, inverse)
				transformInto(got, src, tw, inverse)
				diffComplex(t, label, got, want)
			}
		}
	}
}

// TestVecRFFTRowBitIdentical pins pack, row core, untangle, repack, and
// unpack across the reachable sizes, including short source rows (the
// zero-extended tail every padded raster row has), odd source lengths (the
// pack boundary pair), and the tiny sizes whose pair loop is shorter than
// one vector or whose core stays on transformWith. Each source is drawn
// three times: planted with signed zeros and subnormals, zeros of random
// sign, and -0 only.
func TestVecRFFTRowBitIdentical(t *testing.T) {
	requireASM(t)
	rng := rand.New(rand.NewSource(202))
	for _, n := range planSizes[1:] { // rfft needs n >= 2
		twM := tablesFor(maxInt(n/2, 1))
		twN := tablesFor(n)
		buf := make([]complex128, n/2)
		srcLens := []int{n, n - 1, n / 2, n/2 + 1, 1, 0}
		for _, sl := range srcLens {
			if sl < 0 {
				continue
			}
			pairs := (sl + 1) / 2
			for _, src := range [][]float64{
				packedReals(plantedComplex(rng, pairs), sl),
				packedReals(signedZeros(rng, pairs), sl),
				packedReals(negZeros(pairs), sl),
			} {
				ref := make([]complex128, rfftLen(n))
				vec := make([]complex128, rfftLen(n))
				rfftRow(ref, src, nil, twM, twN, false)
				rfftRow(vec, src, buf, twM, twN, true)
				label := itoa(n) + "/src" + itoa(sl)
				diffComplex(t, "rfft/"+label, vec, ref)

				// irfftRow destroys its input; feed each engine its own copy
				// of the same spectrum.
				specRef := append([]complex128(nil), ref...)
				specVec := append([]complex128(nil), ref...)
				outRef := make([]float64, n)
				outVec := make([]float64, n)
				irfftRow(outRef, specRef, nil, twM, twN, 1, false)
				irfftRow(outVec, specVec, buf, twM, twN, 1, true)
				diffFloat(t, "irfft/"+label, outVec, outRef)
			}
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
		// scalar side spelled out, as AccumulateConj runs the host's engine,
		// and cmulConjInto checked in place, as ApplySpecWith's correlation
		// runs it), then inverse-transform through the matching plan.
		accS := make([]complex128, ps.SpecLen())
		accV := make([]complex128, pv.SpecLen())
		for i, k := range kfS {
			accS[i] += specS[i] * complex(real(k), -imag(k))
			specS[i] = specS[i] * complex(real(k), -imag(k))
		}
		AccumulateConj(accV, specV, kfV)
		cmulConjInto(specV, specV, kfV)
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

// FuzzVecEquivalence drives the rfft row pipeline, the pointwise kernels and
// the column pass with fuzzer-chosen sizes, source cuts, raster widths and
// data seeds, asserting bitwise engine equality every time, and for the
// column pass equality of both engines with the strip oracle. The seeds
// cover the structural edges (smallest sizes, odd cuts, sub-vector tails,
// odd and even widths, odd and even stage counts); the fuzzer explores from
// there.
func FuzzVecEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(1), uint8(0), uint8(0))
	f.Add(int64(2), uint8(2), uint8(1), uint8(1))
	f.Add(int64(3), uint8(4), uint8(3), uint8(16))
	f.Add(int64(4), uint8(8), uint8(255), uint8(128))
	f.Add(int64(5), uint8(12), uint8(7), uint8(255))
	f.Fuzz(func(t *testing.T, seed int64, sizeExp, cut, width uint8) {
		requireASM(t)
		n := 1 << (int(sizeExp)%12 + 1) // 2 .. 4096
		rng := rand.New(rand.NewSource(seed))
		srcLen := n - int(cut)%n
		src := randImage(rng, srcLen)

		twM := tablesFor(maxInt(n/2, 1))
		twN := tablesFor(n)
		ref := make([]complex128, rfftLen(n))
		vec := make([]complex128, rfftLen(n))
		buf := make([]complex128, n/2)
		rfftRow(ref, src, nil, twM, twN, false)
		rfftRow(vec, src, buf, twM, twN, true)
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
		irfftRow(outRef, accRef, nil, twM, twN, 1, false)
		irfftRow(outVec, accVec, buf, twM, twN, 1, true)
		diffFloat(t, "fuzz irfft", outVec, outRef)

		// Column pass: height 1 .. 2048 from the size exponent, width
		// 1 .. 256.
		h, w := 1<<(int(sizeExp)%12), int(width)+1
		twH := tablesFor(h)
		for _, inverse := range []bool{false, true} {
			data := plantedComplex(rng, w*h)
			strip := append([]complex128(nil), data...)
			scalar := append([]complex128(nil), data...)
			stripCols(strip, w, h, twH, inverse, make([]complex128, colBlock*h), false)
			transformCols(scalar, w, h, twH, inverse, false)
			transformCols(data, w, h, twH, inverse, true)
			diffComplex(t, "fuzz "+colLabel(w, h, inverse, false), scalar, strip)
			diffComplex(t, "fuzz "+colLabel(w, h, inverse, true), data, strip)
		}
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
	row := make([]complex128, n/2)
	src := randImage(rng, n)
	real0 := make([]float64, n)
	// A half-spectrum raster with an odd stage count and an odd width, so
	// the column pass runs fftRows2AVX and fftRows1AVX, Nyquist column
	// included.
	cols := randComplex(rng, rfftLen(n)*(n/2))

	cases := map[string]func(){
		"transformInto": func() { transformInto(dst, x, tw, false) },
		"transformCols": func() { transformCols(cols, rfftLen(n), n/2, twM, false, true) },
		"colsInverse":   func() { transformCols(cols, rfftLen(n), n/2, twM, true, true) },
		"cmulInto":      func() { cmulInto(dst, a, b) },
		"cmulConjInto":  func() { cmulConjInto(dst, a, b) },
		"accumConjInto": func() { accumConjInto(dst, a, b) },
		"rfftRow":       func() { rfftRow(spec, src, row, twM, tw, true) },
		"irfftRow":      func() { irfftRow(real0, spec, row, twM, tw, 1, true) },
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
