package litho

import (
	"math"
	"math/rand"
	"slices"
	"strconv"
	"testing"
)

// pixelOut is what one per-pixel pass writes: a raster, the clamp bools
// (composeDouble only) and the finiteness verdict (finite and maskStep).
type pixelOut struct {
	f  []float64
	b  []bool
	ok bool
}

// pixelPass runs one per-pixel pass on the scalar loop (vec false) or the
// kernel (vec true) over the inputs x, the bools sat and the parameters c,
// without writing to any of them.
type pixelPass struct {
	name string
	run  func(vec bool, x [4][]float64, sat []bool, c [2]float64) pixelOut
}

// like returns a copy of xs placed off elements into a fresh backing
// array, so a pass sees the start alignment of its inputs.
func like(xs []float64, off int) []float64 {
	b := make([]float64, off+len(xs))
	copy(b[off:], xs)
	return b[off:]
}

var pixelPasses = []pixelPass{
	{"accumSquares", func(vec bool, x [4][]float64, _ []bool, c [2]float64) pixelOut {
		out := like(x[0], 1)
		accumSquares(vec, out, x[1], c[0])
		return pixelOut{f: out}
	}},
	{"weightField", func(vec bool, x [4][]float64, _ []bool, c [2]float64) pixelOut {
		dst := like(x[0], 3)
		weightField(vec, dst, x[1], x[2], c[0])
		return pixelOut{f: dst}
	}},
	{"resistBackward", func(vec bool, x [4][]float64, _ []bool, c [2]float64) pixelOut {
		gradI := like(x[2], 2)
		resistBackward(vec, x[0], x[1], gradI, c[0])
		return pixelOut{f: gradI}
	}},
	{"composeDouble", func(vec bool, x [4][]float64, sat []bool, _ [2]float64) pixelOut {
		out, clamped := like(x[2], 1), slices.Clone(sat)
		composeDouble(vec, x[0], x[1], out, clamped)
		// A nil sat must write the same raster.
		bare := like(x[3], 2)
		composeDouble(vec, x[0], x[1], bare, nil)
		return pixelOut{f: append(out, bare...), b: clamped}
	}},
	{"composeBackward", func(vec bool, x [4][]float64, sat []bool, _ [2]float64) pixelOut {
		gradT := like(x[2], 3)
		composeBackward(vec, x[0], x[1], sat, gradT)
		return pixelOut{f: gradT}
	}},
	{"finite", func(vec bool, x [4][]float64, _ []bool, _ [2]float64) pixelOut {
		return pixelOut{ok: finite(vec, x[0])}
	}},
	{"maskStep", func(vec bool, x [4][]float64, _ []bool, c [2]float64) pixelOut {
		// x[0] almost always holds a NaN or ±Inf, which stops the step;
		// a finite copy of it lets the step run on the planted m and p.
		g := like(x[0], 2)
		for i, v := range g {
			switch {
			case math.IsNaN(v):
				g[i] = -0.75
			case math.IsInf(v, 0):
				g[i] = math.Copysign(math.MaxFloat64, v)
			}
		}
		stepped, held := like(x[2], 1), like(x[2], 3)
		ok := maskStep(vec, g, x[1], stepped, c[0], c[1])
		ok = maskStep(vec, x[0], x[1], held, c[0], c[1]) && ok
		return pixelOut{f: append(stepped, held...), ok: ok}
	}},
}

// checkPixelPasses runs every pass on both paths and requires the same
// bits: every float, every bool and the verdict.
func checkPixelPasses(t *testing.T, label string, x [4][]float64, sat []bool, c [2]float64) {
	t.Helper()
	for _, ps := range pixelPasses {
		got, want := ps.run(true, x, sat, c), ps.run(false, x, sat, c)
		name := ps.name + "/" + label
		diffBits(t, name, got.f, want.f)
		if !slices.Equal(got.b, want.b) {
			t.Fatalf("%s: clamp bools %v, want %v", name, got.b, want.b)
		}
		if got.ok != want.ok {
			t.Fatalf("%s: verdict %v, want %v", name, got.ok, want.ok)
		}
	}
}

// pixelSpecials are the values planted in the kernels' inputs. NaN is the
// one payload math.NaN returns: which of two NaN operands an instruction
// keeps is the compiler's operand order, not the expression's, so inputs
// carry one payload and parameters are finite and nonzero (a zero or
// infinite parameter would make the other, default NaN from finite
// inputs).
var pixelSpecials = []float64{
	0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	0x1p-1022, -0x1p-1030, 1e300, -1e300, math.Inf(1), math.Inf(-1), math.NaN(),
	1, 0.5, 2,
}

// pixelParams are the parameter pairs the kernels run under: the flow's
// own (kernel weights, 2w, thetaZ, the step and thetaM) and extremes.
var pixelParams = [][2]float64{
	{0.9, 8}, {0.2, 120}, {2, 8}, {1.8, 0.5},
	{1e300, 1e-300}, {-3.25, 1e300}, {math.SmallestNonzeroFloat64, -7},
}

// pixelInputs returns four rasters of n values, starting off elements into
// their backing arrays, and n bools: values in [-2, 2] (which sum past
// Eq. 3's clamp about half the time) with the specials planted at random
// positions, densely enough that short slices hold several.
func pixelInputs(rng *rand.Rand, n, off int) ([4][]float64, []bool) {
	var x [4][]float64
	for k := range x {
		b := make([]float64, off+n)
		for i := range b {
			if rng.Intn(4) == 0 {
				b[i] = pixelSpecials[rng.Intn(len(pixelSpecials))]
			} else {
				b[i] = 4*rng.Float64() - 2
			}
		}
		x[k] = b[off:]
	}
	sat := make([]bool, off+n)
	for i := range sat {
		sat[i] = rng.Intn(2) == 0
	}
	return x, sat[off:]
}

// TestPixelKernelsMatchScalar holds every per-pixel kernel to its scalar
// loop bit for bit, over every length 0-11 at four start alignments and
// over the 68² and 136² cell rasters, with ±0, subnormals, ±1e300, ±Inf
// and NaN planted in every input, under each parameter pair.
func TestPixelKernelsMatchScalar(t *testing.T) {
	if !pixelVector {
		t.Skip("the per-pixel kernels need AVX2")
	}
	rng := rand.New(rand.NewSource(5))
	for _, c := range pixelParams {
		for n := 0; n <= 11; n++ {
			for off := 0; off < 4; off++ {
				x, sat := pixelInputs(rng, n, off)
				checkPixelPasses(t, strconv.Itoa(n)+"@"+strconv.Itoa(off), x, sat, c)
			}
		}
		for _, side := range []int{68, 136} {
			x, sat := pixelInputs(rng, side*side, side%3)
			checkPixelPasses(t, strconv.Itoa(side)+"px", x, sat, c)
		}
	}
}

// TestFiniteMatchesFiniteSlice plants a lone NaN, +Inf or -Inf at every
// position of finite slices holding ±0, subnormals and ±1e300, vector
// positions and tail alike, and requires the kernel path, finiteSlice and
// maskStep to agree: false, with the step's p untouched. The clean slices
// read true on both paths.
func TestFiniteMatchesFiniteSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	finiteVals := []float64{0, math.Copysign(0, -1), math.SmallestNonzeroFloat64,
		-0x1p-1030, 1e300, -1e300, math.MaxFloat64, -math.MaxFloat64, 0.5}
	for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 68 * 68, 136 * 136} {
		back := make([]float64, n+1)
		for i := range back {
			back[i] = finiteVals[rng.Intn(len(finiteVals))]
		}
		xs := back[1:]
		m := make([]float64, n)
		p := make([]float64, n)
		for i := range p {
			m[i], p[i] = rng.Float64(), rng.Float64()
		}
		before := slices.Clone(p)
		for _, vec := range []bool{false, pixelVector} {
			if !finite(vec, xs) || !finiteSlice(xs) {
				t.Fatalf("n=%d vec=%v: a finite slice reads non-finite", n, vec)
			}
		}
		for j := 0; j < n; j++ {
			// The large raster takes its first and last 64 positions and
			// every seventh between them.
			if n > 68*68 && j >= 64 && j < n-64 && j%7 != 0 {
				continue
			}
			keep := xs[j]
			for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
				xs[j] = bad
				if finiteSlice(xs) {
					t.Fatalf("n=%d: finiteSlice misses %v at %d", n, bad, j)
				}
				if finite(pixelVector, xs) {
					t.Fatalf("n=%d: finite misses %v at %d", n, bad, j)
				}
				if maskStep(pixelVector, xs, m, p, 2, 8) || !slices.Equal(p, before) {
					t.Fatalf("n=%d: maskStep took a step past %v at %d", n, bad, j)
				}
			}
			xs[j] = keep
		}
	}
}

// TestComposeDoubleBackwardZeroAtClamp requires +0, sign bit clear, at
// every clamped pixel on both paths, even where 2·(T−target) would be
// -0, NaN or infinite; the unclamped pixels take the expression.
func TestComposeDoubleBackwardZeroAtClamp(t *testing.T) {
	vals := []float64{math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), -1e300, 0.25}
	n := 4 * len(vals) * len(vals)
	tt, target, gradT := make([]float64, n), make([]float64, n), make([]float64, n)
	sat := make([]bool, n)
	for i := range tt {
		tt[i], target[i] = vals[i%len(vals)], vals[(i/len(vals))%len(vals)]
		sat[i] = i/(len(vals)*len(vals))%2 == 0
	}
	for _, vec := range []bool{false, pixelVector} {
		for i := range gradT {
			gradT[i] = math.NaN()
		}
		composeBackward(vec, tt, target, sat, gradT)
		for i, g := range gradT {
			want := 2 * (tt[i] - target[i])
			if sat[i] {
				want = 0
			}
			if math.Float64bits(g) != math.Float64bits(want) {
				t.Fatalf("vec=%v: gradT[%d] = %v (%#x), want %v (%#x)", vec, i, g,
					math.Float64bits(g), want, math.Float64bits(want))
			}
		}
	}
}

// TestPixelWrappersPanicOnShortSlice makes each input of each per-pixel
// function in turn one element short of the pass and requires a panic
// that comes before anything is written: the length checks run before a
// kernel could read or write past a slice's end.
func TestPixelWrappersPanicOnShortSlice(t *testing.T) {
	const n = 12 // a 3x4 raster: three whole vectors
	full := func(k int) []float64 {
		xs := make([]float64, k)
		for i := range xs {
			xs[i] = 0.25
		}
		return xs
	}
	// f and b return input k, one element short when it is input s.
	f := func(s, k int) []float64 {
		if s == k {
			return full(n - 1)
		}
		return full(n)
	}
	b := func(s, k int) []bool {
		if s == k {
			return make([]bool, n-1)
		}
		return make([]bool, n)
	}
	sim, err := NewSimulator(3, 4, FastParams())
	if err != nil {
		t.Fatal(err)
	}
	fields := func(s, k int) *Fields {
		fs := sim.NewFields()
		fs.Amp[0] = f(s, k)
		return fs
	}
	// Each fn writes only dst; its inputs count from 0.
	calls := []struct {
		name   string
		inputs int
		fn     func(s int, dst []float64)
	}{
		{"accumSquares", 1, func(_ int, dst []float64) { accumSquares(pixelVector, dst[:n-1], full(n), 1) }},
		{"weightField", 2, func(s int, dst []float64) { weightField(pixelVector, dst, f(s, 0), f(s, 1), 1) }},
		{"AerialBackward", 2, func(s int, dst []float64) { sim.AerialBackward(f(s, 0), fields(s, 1), dst) }},
		{"ResistBackward", 2, func(s int, dst []float64) { sim.ResistBackward(f(s, 0), f(s, 1), dst) }},
		{"ComposeDouble", 3, func(s int, dst []float64) { ComposeDouble(f(s, 0), f(s, 1), dst, b(s, 2)) }},
		{"ComposeDoubleBackward", 3, func(s int, dst []float64) { ComposeDoubleBackward(f(s, 0), f(s, 1), b(s, 2), dst) }},
		{"MaskSigmoidStep", 2, func(s int, dst []float64) { MaskSigmoidStep(8, 2, f(s, 0), f(s, 1), dst) }},
	}
	for _, c := range calls {
		for s := 0; s < c.inputs; s++ {
			dst := full(n)
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s with input %d short did not panic", c.name, s)
					}
				}()
				c.fn(s, dst)
			}()
			if !slices.Equal(dst, full(n)) {
				t.Errorf("%s with input %d short wrote before it panicked", c.name, s)
			}
		}
	}
}

// FuzzPixelKernels fuzzes two values and two parameters: every per-pixel
// kernel equals its scalar loop bit for bit on rasters of two vectors and
// a tail built around the values. NaN values are folded to math.NaN's
// payload and zero or non-finite parameters are skipped, for the reason
// pixelSpecials gives.
func FuzzPixelKernels(f *testing.F) {
	f.Add(0.5, 0.75, 0.9, 8.0)
	f.Add(0.04, 0.032, 2.0, 120.0)
	f.Add(1.0, 0.0, 1.8, 8.0)
	f.Add(math.Inf(1), -1e300, 1e-300, 1e300)
	f.Add(math.NaN(), math.Copysign(0, -1), 3.0, 0.5)
	f.Add(math.SmallestNonzeroFloat64, math.Inf(-1), -2.0, 5e-324)
	f.Fuzz(func(t *testing.T, v, u, c0, c1 float64) {
		if !pixelVector {
			t.Skip("the per-pixel kernels need AVX2")
		}
		for _, c := range []float64{c0, c1} {
			if c == 0 || math.IsNaN(c) || math.IsInf(c, 0) {
				t.Skip()
			}
		}
		if math.IsNaN(v) {
			v = math.NaN()
		}
		if math.IsNaN(u) {
			u = math.NaN()
		}
		base := []float64{
			v, u, -v, u / 2, v * 2, v + u, v - 1, math.Nextafter(v, 0), 1 - u,
			u * v, 1 - v, -u,
		}
		var x [4][]float64
		for k := range x {
			x[k] = make([]float64, 9)
			for i := range x[k] {
				x[k][i] = base[(i+3*k)%len(base)]
				if math.IsNaN(x[k][i]) {
					x[k][i] = math.NaN()
				}
			}
		}
		sat := make([]bool, 9)
		for i := range sat {
			sat[i] = x[0][i] > x[1][i]
		}
		checkPixelPasses(t, "fuzz", x, sat, [2]float64{c0, c1})
	})
}

// BenchmarkPixelPasses times each per-pixel pass over a 136² cell raster
// (4 nm) on the Go loop and, where the host runs them, on the kernels. The
// clamp bools are random, so the Go loops of the composition and the loss
// adjoint pay a branch miss on about half the pixels.
func BenchmarkPixelPasses(b *testing.B) {
	engines := []bool{false}
	if pixelVector {
		engines = append(engines, true)
	}
	const n = 136 * 136
	rng := rand.New(rand.NewSource(7))
	var x [4][]float64
	for k := range x {
		x[k] = make([]float64, n)
		for i := range x[k] {
			x[k][i] = rng.Float64()
		}
	}
	sat := make([]bool, n)
	for i := range sat {
		sat[i] = rng.Intn(2) == 0
	}
	passes := []struct {
		name string
		fn   func(vec bool)
	}{
		{"accumSquares", func(vec bool) { accumSquares(vec, x[0], x[1], 0.9) }},
		{"weightField", func(vec bool) { weightField(vec, x[0], x[1], x[2], 1.8) }},
		{"resistBackward", func(vec bool) { resistBackward(vec, x[1], x[2], x[0], 120) }},
		{"composeDouble", func(vec bool) { composeDouble(vec, x[1], x[2], x[0], sat) }},
		{"composeBackward", func(vec bool) { composeBackward(vec, x[1], x[2], sat, x[0]) }},
		{"maskStep", func(vec bool) { maskStep(vec, x[1], x[2], x[3], 1e-9, 8) }},
	}
	for _, ps := range passes {
		for _, vec := range engines {
			name := map[bool]string{false: "go", true: "avx"}[vec]
			b.Run(ps.name+"/"+name, func(b *testing.B) {
				b.SetBytes(8 * n)
				for range b.N {
					ps.fn(vec)
				}
			})
		}
	}
}
