package litho

import (
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"testing"

	"ldmo/internal/fft"
)

// expOracle transcribes Go's amd64 math.Exp (archExp in
// $GOROOT/src/math/exp_amd64.s) into Go, special cases included. fused
// selects the avxfma branch, whose fused multiply-adds become math.FMA;
// otherwise it is the SSE branch, where every product and sum rounds on its
// own (the float64 conversions keep the compiler from fusing them on
// architectures that would). It lets the sigmoid kernels be checked against
// either branch on any host that can run them.
func expOracle(x float64, fused bool) float64 {
	const (
		log2e    = 1.4426950408889634073599246810018920
		ln2U     = 0.69314718055966295651160180568695068359375
		ln2L     = 0.28235290563031577122588448175013436025525412068e-12
		overflow = 7.09782712893384e+02
	)
	coef := [...]float64{
		2.4801587301587301587e-5, 1.9841269841269841270e-4,
		1.3888888888888888889e-3, 8.3333333333333333333e-3,
		4.1666666666666666667e-2, 1.6666666666666666667e-1,
		0.5, 1.0,
	}
	bits := math.Float64bits(x)
	switch {
	case bits == math.Float64bits(math.Inf(-1)):
		return 0
	case bits&^(1<<63) >= math.Float64bits(math.Inf(1)): // NaN or +Inf
		return x
	case x > overflow:
		return math.Inf(1)
	}
	// CVTSD2SL: round to nearest even; out of int32 range gives the
	// "integer indefinite" 0x80000000.
	k := int32(math.MinInt32)
	if t := math.RoundToEven(float64(log2e * x)); t >= math.MinInt32 && t <= math.MaxInt32 {
		k = int32(t)
	}
	kf := float64(k)
	if fused {
		x = math.FMA(-kf, ln2U, x)
		x = math.FMA(-kf, ln2L, x)
		x = float64(x * 0.0625)
		p := coef[0]
		for _, c := range coef[1:] {
			p = math.FMA(p, x, c)
		}
		x = float64(x * p)
		for range 3 {
			x = float64(x * float64(x+2))
		}
		x = math.FMA(float64(x+2), x, 1)
	} else {
		x = float64(x - float64(ln2U*kf))
		x = float64(x - float64(ln2L*kf))
		x = float64(x * 0.0625)
		p := coef[0]
		for _, c := range coef[1:] {
			p = float64(float64(p*x) + c)
		}
		x = float64(x * p)
		for range 4 {
			x = float64(x * float64(x+2))
		}
		x = float64(x + 1)
	}
	// ldexp, with archExp's denormal path: two roundings via 2^(k+1022)
	// and 2^-1022.
	e := k + 0x3FF
	switch {
	case e <= 0:
		if e < -52 {
			return 0
		}
		x = float64(x * math.Float64frombits(uint64(uint32(e+0x3FE))<<52))
		e = 1
	case e >= 0x7FF:
		return math.Inf(1)
	}
	return float64(x * math.Float64frombits(uint64(e)<<52))
}

// sigmoidOracle is the scalar sigmoid expression over one exp branch.
func sigmoidOracle(v, a, b float64, fused bool) float64 {
	return 1 / (1 + expOracle((v-b)*a, fused))
}

// hostRunsKernel reports whether this host can execute the vector kernel.
func hostRunsKernel() bool { return fft.ASMEnabled() && fft.HasFMA() }

// mathExpFused reports whether this process's math.Exp follows archExp's
// FMA branch over the probe's arguments.
func mathExpFused() bool {
	for _, v := range sigmoidProbe(1, 0) {
		if math.Float64bits(math.Exp(v)) != math.Float64bits(expOracle(v, true)) {
			return false
		}
	}
	return true
}

// sigmoidContract is what sigmoidInto must write on the vector kernel:
// every whole vector of four from the start whose arguments all lie in
// [-708, 709] takes the oracle on the FMA branch, and every other element
// takes the scalar math.Exp expression.
func sigmoidContract(src []float64, a, b float64) []float64 {
	want := make([]float64, len(src))
	for i, v := range src {
		want[i] = sigmoid(v, a, b)
	}
	for i := 0; i+4 <= len(src); i += 4 {
		in := true
		for _, v := range src[i : i+4] {
			x := (v - b) * a
			in = in && x >= -708 && x <= 709
		}
		if in {
			for j := i; j < i+4; j++ {
				want[j] = sigmoidOracle(src[j], a, b, true)
			}
		}
	}
	return want
}

func diffBits(t *testing.T, label string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: [%d] = %v (%#x), want %v (%#x)", label, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestExpOracleMatchesMathExp pins the oracle, and with it the kernels'
// reference, to the math.Exp this binary links: over 2^20 in-range
// arguments, the range edges and the special cases, math.Exp must equal
// the oracle on one fixed branch. A Go release that changes math.Exp fails
// here; the init self-check will already have fallen back to the scalar
// loop.
func TestExpOracleMatchesMathExp(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("math.Exp is archExp only on amd64")
	}
	rng := rand.New(rand.NewSource(1))
	xs := []float64{
		-708, 709, 709.78, 709.79, 7.09782712893384e+02, -745.13, -745.2,
		-740, -1e308, 1e308, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		math.Nextafter(-708, -800), math.Nextafter(709, 800),
	}
	scales := []float64{1, 10, 100, 709}
	for i := 0; i < 1<<20; i++ {
		xs = append(xs, (2*rng.Float64()-1)*scales[i%len(scales)])
	}
	miss := [2]int{}
	for _, x := range xs {
		got := math.Float64bits(math.Exp(x))
		for b, fused := range []bool{false, true} {
			if got != math.Float64bits(expOracle(x, fused)) {
				miss[b]++
			}
		}
	}
	if miss[0] != 0 && miss[1] != 0 {
		t.Fatalf("math.Exp matches neither archExp branch: %d SSE and %d FMA mismatches of %d",
			miss[0], miss[1], len(xs))
	}
	t.Logf("math.Exp follows the %s branch (the other differs on %d of %d arguments)",
		map[bool]string{false: "SSE", true: "FMA"}[miss[1] == 0], max(miss[0], miss[1]), len(xs))
}

// TestSigmoidKernelsMatchScalar runs the vector kernel, wherever the host
// can execute it, in the mask, resist and unit parameterizations, against
// its contract: the oracle-based scalar expression on whole in-range vectors
// and the math.Exp expression elsewhere, bit for bit. Inputs cover random values
// at scales 1 to 1000 with specials planted, the range edges, NaN, ±Inf, ±0
// and subnormals, every length 0 to 11, and unaligned starts.
func TestSigmoidKernelsMatchScalar(t *testing.T) {
	if !hostRunsKernel() {
		t.Skip("the vector sigmoid kernel needs AVX2 and FMA3")
	}
	p := DefaultParams()
	params := map[string][2]float64{
		"mask":   {-p.ThetaM, 0},
		"resist": {-p.ThetaZ, p.Ith},
		"unit":   {-1, 0},
	}
	special := []float64{
		math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1022, -0x1p-1022,
		708, -709, -709.5, -709.79, 745.2, 88.5, -88.625,
		math.Nextafter(708, 0), math.Nextafter(708, 800), math.Nextafter(-709, -800),
	}
	rng := rand.New(rand.NewSource(2))
	var inputs [][]float64
	for _, scale := range []float64{1, 10, 100, 1000} {
		in := make([]float64, 4099)
		for i := range in {
			in[i] = (2*rng.Float64() - 1) * scale
		}
		for _, s := range special {
			in[rng.Intn(len(in))] = s
		}
		inputs = append(inputs, in)
	}
	// Short slices at every length and alignment, drawn from specials and
	// in-range values so vectors stop and resume at every position.
	pool := append(append([]float64(nil), special...), -1, -0.5, 0.25, 0.03, 0.04, 3, -7)
	for n := 0; n <= 11; n++ {
		for off := 0; off < 4; off++ {
			back := make([]float64, off+n)
			for i := range back {
				back[i] = pool[rng.Intn(len(pool))]
			}
			inputs = append(inputs, back[off:])
			inRange := make([]float64, off+n)
			for i := range inRange {
				inRange[i] = 2*rng.Float64() - 1
			}
			inputs = append(inputs, inRange[off:])
		}
	}
	for pname, ab := range params {
		a, b := ab[0], ab[1]
		for i, src := range inputs {
			got := make([]float64, len(src))
			sigmoidInto(true, got, src, a, b)
			diffBits(t, pname+"/input"+strconv.Itoa(i), got, sigmoidContract(src, a, b))
		}
	}
}

// scalarMask and scalarResist are the sigmoid loops exactly as written
// before the vector kernels: the bitwise reference of MaskSigmoid and
// ResistSigmoid.
func scalarMask(thetaM float64, p, m []float64) {
	for i, v := range p {
		m[i] = 1 / (1 + math.Exp(-thetaM*v))
	}
}

func scalarResist(thetaZ, ith float64, aerial, t []float64) {
	for i, v := range aerial {
		t[i] = 1 / (1 + math.Exp(-thetaZ*(v-ith)))
	}
}

// TestSigmoidEngineSelected pins the init self-check: a host that can run
// the vector kernel, and whose math.Exp follows the FMA branch, must select
// it, so a silent fallback cannot hide a lost gain; any other host, such as
// one under GODEBUG=cpu.fma=off, must run the scalar loop. On whatever
// engine was selected, MaskSigmoid and ResistSigmoid equal the scalar loops
// bit for bit.
func TestSigmoidEngineSelected(t *testing.T) {
	selected := hostRunsKernel() && mathExpFused()
	if sigmoidVector != selected {
		t.Fatalf("vector sigmoid selected = %v, want %v (kernel runnable %v, math.Exp fused %v)",
			sigmoidVector, selected, hostRunsKernel(), mathExpFused())
	}
	rng := rand.New(rand.NewSource(3))
	src := make([]float64, 1027)
	for i := range src {
		src[i] = rng.NormFloat64() * float64(int(1)<<(i%8))
	}
	src[5], src[100], src[513] = math.NaN(), math.Inf(1), math.Copysign(0, -1)
	p := DefaultParams()
	got, want := make([]float64, len(src)), make([]float64, len(src))
	MaskSigmoid(p.ThetaM, src, got)
	scalarMask(p.ThetaM, src, want)
	diffBits(t, "MaskSigmoid", got, want)
	ResistSigmoid(p.ThetaZ, p.Ith, src, got)
	scalarResist(p.ThetaZ, p.Ith, src, want)
	diffBits(t, "ResistSigmoid", got, want)
}

// TestSigmoidProbeSeparatesBranches checks that the init self-check can
// tell the two exp branches apart: in both parameterizations the probe
// holds inputs whose sigmoid differs between them, so the kernel fails the
// probe where math.Exp takes its SSE branch.
func TestSigmoidProbeSeparatesBranches(t *testing.T) {
	p := DefaultParams()
	for _, ab := range [][2]float64{{-p.ThetaM, 0}, {-p.ThetaZ, p.Ith}} {
		a, b := ab[0], ab[1]
		src := sigmoidProbe(a, b)
		if len(src) < 1024 {
			t.Fatalf("probe (%g, %g) has %d inputs, want 1024", a, b, len(src))
		}
		differ := 0
		for _, v := range src {
			if x := (v - b) * a; x < -708 || x > 709 {
				t.Fatalf("probe (%g, %g) input %g has argument %g outside the kernel range", a, b, v, x)
			}
			if math.Float64bits(sigmoidOracle(v, a, b, true)) != math.Float64bits(sigmoidOracle(v, a, b, false)) {
				differ++
			}
		}
		if differ < 8 {
			t.Errorf("probe (%g, %g): only %d of %d inputs separate the exp branches", a, b, differ, len(src))
		}
		t.Logf("probe (%g, %g): %d of %d inputs separate the exp branches", a, b, differ, len(src))
	}
}

// TestSigmoidZeroAlloc gates both relaxations at zero allocations per call.
func TestSigmoidZeroAlloc(t *testing.T) {
	src, dst := make([]float64, 136*136), make([]float64, 136*136)
	for i := range src {
		src[i] = float64(i%97)/48 - 1
	}
	p := DefaultParams()
	for name, fn := range map[string]func(){
		"MaskSigmoid":   func() { MaskSigmoid(p.ThetaM, src, dst) },
		"ResistSigmoid": func() { ResistSigmoid(p.ThetaZ, p.Ith, src, dst) },
	} {
		if allocs := testing.AllocsPerRun(20, fn); allocs != 0 {
			t.Errorf("%s allocates %.1f objects per call, want 0", name, allocs)
		}
	}
}

// FuzzSigmoid fuzzes the value, slope and threshold: MaskSigmoid and
// ResistSigmoid equal the scalar loops bit for bit, and the vector kernel,
// where the host runs it, keeps its contract, on a slice of two vectors and a tail built around v.
// A NaN slope is skipped: with NaN operands on both sides of a product,
// which payload survives is the compiler's operand order, not the kernel's.
func FuzzSigmoid(f *testing.F) {
	f.Add(0.5, 8.0, 0.0)
	f.Add(0.04, 120.0, 0.032)
	f.Add(-88.625, 8.0, 0.0)
	f.Add(88.5, 8.0, 0.039)
	f.Add(5.9, 120.0, 0.039)
	f.Add(math.Inf(1), 1.0, 0.0)
	f.Add(math.NaN(), 8.0, 0.5)
	f.Fuzz(func(t *testing.T, v, theta, ith float64) {
		if math.IsNaN(theta) {
			t.Skip()
		}
		src := []float64{
			v, -v, v / 2, v * 2, v + 1, v - 1, math.Nextafter(v, 0), ith,
			ith + v/1000,
		}
		got, want := make([]float64, len(src)), make([]float64, len(src))
		MaskSigmoid(theta, src, got)
		scalarMask(theta, src, want)
		diffBits(t, "MaskSigmoid", got, want)
		ResistSigmoid(theta, ith, src, got)
		scalarResist(theta, ith, src, want)
		diffBits(t, "ResistSigmoid", got, want)
		if !hostRunsKernel() {
			return
		}
		for _, ab := range [][2]float64{{-theta, 0}, {-theta, ith}} {
			sigmoidInto(true, got, src, ab[0], ab[1])
			diffBits(t, "kernel", got, sigmoidContract(src, ab[0], ab[1]))
		}
	})
}

// BenchmarkSigmoid times one Eq. 1 sigmoid over a cell raster at 4 nm
// (136 px) and 8 nm (68 px) on the scalar loop and, where the host runs it,
// on the vector kernel.
func BenchmarkSigmoid(b *testing.B) {
	engines := []bool{false}
	if hostRunsKernel() {
		engines = append(engines, true)
	}
	for _, side := range []int{136, 68} {
		src, dst := make([]float64, side*side), make([]float64, side*side)
		rng := rand.New(rand.NewSource(4))
		for i := range src {
			src[i] = 2*rng.Float64() - 1
		}
		for _, vec := range engines {
			name := map[bool]string{false: "scalar", true: "avxfma"}[vec]
			b.Run(strconv.Itoa(side)+"px/"+name, func(b *testing.B) {
				b.SetBytes(int64(16 * len(src)))
				for range b.N {
					sigmoidInto(vec, dst, src, -8, 0)
				}
			})
		}
	}
}
