package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// The naive ikj, kij and dot-product loops the package started with: the
// reference the blocked engine must match bit for bit (ascending-k
// accumulation per element; exact-zero A entries are skipped).

func matMulNaive(a []float64, m, k int, b []float64, n int, out []float64) {
	clear(out[:m*n])
	for i := 0; i < m; i++ {
		arow := a[i*k : (i+1)*k]
		orow := out[i*n : (i+1)*n]
		for kk, av := range arow {
			if av == 0 {
				continue
			}
			for j, bv := range b[kk*n : (kk+1)*n] {
				orow[j] += av * bv
			}
		}
	}
}

func matMulATBNaive(a []float64, k, m int, b []float64, n int, out []float64) {
	clear(out[:m*n])
	for kk := 0; kk < k; kk++ {
		brow := b[kk*n : (kk+1)*n]
		for i, av := range a[kk*m : (kk+1)*m] {
			if av == 0 {
				continue
			}
			orow := out[i*n : (i+1)*n]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
}

func matMulABTNaive(a []float64, m, k int, b []float64, n int, out []float64) {
	for i := 0; i < m; i++ {
		arow := a[i*k : (i+1)*k]
		for j := 0; j < n; j++ {
			s := 0.0
			for kk, bv := range b[j*k : (j+1)*k] {
				s += arow[kk] * bv
			}
			out[i*n+j] = s
		}
	}
}

// randSlice fills a slice with standard normals; exact zeros are measure-zero
// so the naive engine's zero-skip branch cannot introduce a bitwise divergence.
func randSlice(rng *rand.Rand, n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = rng.NormFloat64()
	}
	return s
}

// gemmShapes are the randomized-property shapes: every remainder class of the
// 4-row strips and 4x4 dot tiles, the k=1/n=1/m=1 edges, and sizes spanning
// one panel up to several blocking panels in every dimension. The vector
// kernels' paths each get a shape: n = 8..31 covers every column residue
// mod 16 and mod 8 (the AVX-512 tile's 16-column blocks and masked 1..15
// tail, the AVX tile's 8-column blocks, 4-column block and masked 1..3
// tail), n = 49 is three 16-column blocks or six 8-column blocks plus one
// masked column (stage 4 at batch 1), n = 196 ends on a 4-column block,
// k = 257 and 515 reach a second and third kc panel, and m not a multiple
// of 4 runs the remainder kernel.
func gemmShapes(rng *rand.Rand) [][3]int {
	shapes := [][3]int{
		{1, 1, 1}, {1, 7, 1}, {4, 1, 4}, {3, 5, 2}, {5, 3, 9},
		{4, 4, 4}, {8, 49, 33}, {13, 17, 19}, {64, 256, 512},
		{65, 257, 513}, {2, 300, 600}, {48, 144, 784},
		{8, 37, 49}, {4, 64, 196}, {12, 257, 49}, {6, 515, 196}, {7, 515, 15},
	}
	for n := 8; n <= 31; n++ {
		shapes = append(shapes, [3]int{4 + n%5, 9 + n, n})
	}
	for i := 0; i < 8; i++ {
		shapes = append(shapes, [3]int{1 + rng.Intn(70), 1 + rng.Intn(300), 1 + rng.Intn(600)})
	}
	return shapes
}

// engine is one GEMM engine kern4Strip can run, given as the gate values
// under which it is picked: the Go kernels, the AVX 4x8 tile or the
// AVX-512 4x16 tile.
type engine struct {
	name        string
	avx, avx512 bool
}

// hostEngines lists the engines the running CPU supports.
func hostEngines() []engine {
	es := []engine{{name: "go"}}
	if haveAVX {
		es = append(es, engine{name: "avx", avx: true})
	}
	if haveAVX512 {
		es = append(es, engine{name: "avx512", avx: true, avx512: true})
	}
	return es
}

// withEngine runs f on engine e and then restores the probe's choice.
func withEngine(e engine, f func()) {
	avx, avx512 := haveAVX, haveAVX512
	haveAVX, haveAVX512 = e.avx, e.avx512
	defer func() { haveAVX, haveAVX512 = avx, avx512 }()
	f()
}

// TestBlockedMatMulMatchesNaive is the kernel contract: on finite inputs the
// blocked engine reproduces the naive reference bit for bit (ascending-k
// accumulation per element), across remainder tiles and degenerate edges,
// on every engine the host runs.
func TestBlockedMatMulMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, sh := range gemmShapes(rng) {
		m, k, n := sh[0], sh[1], sh[2]
		a := randSlice(rng, m*k)
		b := randSlice(rng, k*n)
		got := make([]float64, m*n)
		want := make([]float64, m*n)
		matMulNaive(a, m, k, b, n, want)
		for _, e := range hostEngines() {
			withEngine(e, func() { gemmPacked(a, false, m, k, b, n, got) })
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("MatMul %s m=%d k=%d n=%d: out[%d] = %g (blocked) vs %g (naive), diff %g",
						e.name, m, k, n, i, got[i], want[i], got[i]-want[i])
				}
			}
		}
	}
}

// plantedOperand fills a slice with normals and plants the values a
// vector kernel most easily gets wrong: ±0, subnormals, and ±1e300, whose
// products overflow to ±Inf and whose sums then reach NaN.
func plantedOperand(rng *rand.Rand, n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		switch rng.Intn(12) {
		case 0:
			s[i] = 0
		case 1:
			s[i] = math.Copysign(0, -1)
		case 2:
			s[i] = math.Float64frombits(uint64(1 + rng.Int63n(1<<52-1))) // subnormal
		case 3:
			s[i] = -math.SmallestNonzeroFloat64
		case 4:
			s[i] = 1e300
		case 5:
			s[i] = -1e300
		default:
			s[i] = rng.NormFloat64()
		}
	}
	return s
}

// TestStripKernelsBitIdentical runs every strip kernel the host has — kern4,
// kern4x8AVX and kern4x16AVX512 — on the same packed panels and C tiles and
// requires the same bits, NaNs included, for nc = 1..48 (every column
// residue of both tiles, and several whole blocks) and kc from 1 to a full
// 256-deep panel. Each C row is followed by sentinels, which no kernel may
// write: the masked tails must leave the columns past nc alone.
func TestStripKernelsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	const pad = 16
	sentinel := math.Float64frombits(0x7ff4dead0000beef)
	for _, kc := range []int{1, 2, 255, 256} {
		for nc := 1; nc <= 48; nc++ {
			ap := plantedOperand(rng, 4*kc)
			bp := plantedOperand(rng, kc*nc)
			cInit := plantedOperand(rng, 4*nc)
			run := func(kern func(c0, c1, c2, c3 []float64)) []float64 {
				c := make([]float64, 4*(nc+pad))
				for r := 0; r < 4; r++ {
					copy(c[r*(nc+pad):], cInit[r*nc:(r+1)*nc])
					for j := nc; j < nc+pad; j++ {
						c[r*(nc+pad)+j] = sentinel
					}
				}
				row := func(r int) []float64 { return c[r*(nc+pad) : r*(nc+pad)+nc] }
				kern(row(0), row(1), row(2), row(3))
				return c
			}
			want := run(func(c0, c1, c2, c3 []float64) { kern4(ap, kc, bp, nc, c0, c1, c2, c3) })
			for _, e := range hostEngines()[1:] {
				got := run(func(c0, c1, c2, c3 []float64) {
					if e.avx512 {
						kern4x16AVX512(&ap[0], &bp[0], &c0[0], &c1[0], &c2[0], &c3[0], kc, nc)
					} else {
						kern4x8AVX(&ap[0], &bp[0], &c0[0], &c1[0], &c2[0], &c3[0], kc, nc)
					}
				})
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%s kc=%d nc=%d: row %d col %d = %x, kern4 %x", e.name, kc, nc,
							i/(nc+pad), i%(nc+pad), math.Float64bits(got[i]), math.Float64bits(want[i]))
					}
				}
			}
		}
	}
}

// convCase is one convolution of a batch of images.
type convCase struct {
	g     ConvGeom
	batch int
}

// convGrid is the conv entry's property grid: stride 1 and 2, padding 0-3,
// kernel edges 1, 3 and 7, batches of 1-3 images. Each kernel edge has a
// channel count that makes k = InC*K*K straddle two or three 256-deep
// panels, and the input sizes make the column count n*OH*OW run from under
// one 512-wide panel to past two, with panel edges inside an image and
// inside an output row.
func convGrid() []convCase {
	var grid []convCase
	for _, kc := range [][2]int{{1, 260}, {3, 57}, {7, 11}} {
		for stride := 1; stride <= 2; stride++ {
			for pad := 0; pad <= 3; pad++ {
				for batch := 1; batch <= 3; batch++ {
					g := ConvGeom{InC: kc[1], InH: 13 * stride, InW: 17 * stride, K: kc[0], Stride: stride, Pad: pad}
					grid = append(grid, convCase{g, batch})
				}
			}
		}
	}
	return grid
}

// TestConvPackedMatchesNaive holds the conv entry to the kernel contract
// with W packed once by packA: on every engine the host runs, its output
// is bit-identical to Im2ColBatch followed by MatMul, and both to the
// naive loops over the same column matrix.
func TestConvPackedMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	const m = 6 // one full 4-row strip and a 2-row remainder
	for _, c := range convGrid() {
		g, batch := c.g, c.batch
		k := g.InC * g.K * g.K
		n := batch * g.OutH() * g.OutW()
		w := randSlice(rng, m*k)
		imgs := randSlice(rng, batch*g.InC*g.InH*g.InW)
		ap := make([]float64, m*k)
		packA(w, false, m, k, ap)
		col := make([]float64, k*n)
		Im2ColBatch(imgs, batch, g, col)
		want := make([]float64, m*n)
		naive := make([]float64, m*n)
		got := make([]float64, m*n)
		MatMul(w, m, k, col, n, want)
		matMulNaive(w, m, k, col, n, naive)
		for _, e := range hostEngines() {
			withEngine(e, func() { ConvPacked(ap, m, imgs, batch, g, got) })
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) || naive[i] != want[i] {
					t.Fatalf("ConvPacked %s %+v batch %d: out[%d] = %g, Im2ColBatch+MatMul %g, naive %g",
						e.name, g, batch, i, got[i], want[i], naive[i])
				}
			}
		}
	}
}

// TestPackALayout pins the packed layout ConvPacked documents, which
// callers outside the package write themselves: A[4s+r][kk] sits at
// 4s*k + kk*mr + r, with mr the strip's row count, for A read directly and
// read transposed.
func TestPackALayout(t *testing.T) {
	for _, m := range []int{1, 4, 6, 9} {
		const k = 5
		a := make([]float64, m*k)
		at := make([]float64, k*m)
		for i := 0; i < m; i++ {
			for kk := 0; kk < k; kk++ {
				a[i*k+kk] = float64(100*i + kk)
				at[kk*m+i] = a[i*k+kk]
			}
		}
		ap := make([]float64, m*k)
		apt := make([]float64, m*k)
		packA(a, false, m, k, ap)
		packA(at, true, m, k, apt)
		for i := 0; i < m; i++ {
			s, r := i/4, i%4
			mr := min(4, m-4*s)
			for kk := 0; kk < k; kk++ {
				idx := 4*s*k + kk*mr + r
				if ap[idx] != a[i*k+kk] || apt[idx] != a[i*k+kk] {
					t.Fatalf("m=%d: A[%d][%d] = %g, packed %g, packed from A^T %g",
						m, i, kk, a[i*k+kk], ap[idx], apt[idx])
				}
			}
		}
	}
}

func TestBlockedMatMulATBMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, sh := range gemmShapes(rng) {
		m, k, n := sh[0], sh[1], sh[2]
		a := randSlice(rng, k*m) // stored k x m, read transposed
		b := randSlice(rng, k*n)
		got := make([]float64, m*n)
		want := make([]float64, m*n)
		gemmPacked(a, true, m, k, b, n, got)
		matMulATBNaive(a, k, m, b, n, want)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("MatMulATB m=%d k=%d n=%d: out[%d] = %g vs %g", m, k, n, i, got[i], want[i])
			}
		}
	}
}

func TestBlockedMatMulABTMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, sh := range gemmShapes(rng) {
		m, k, n := sh[0], sh[1], sh[2]
		a := randSlice(rng, m*k)
		b := randSlice(rng, n*k) // stored n x k, read transposed
		got := make([]float64, m*n)
		want := make([]float64, m*n)
		gemmABT(a, m, k, b, n, got)
		matMulABTNaive(a, m, k, b, n, want)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("MatMulABT m=%d k=%d n=%d: out[%d] = %g vs %g", m, k, n, i, got[i], want[i])
			}
		}
	}
}

// TestBlockedToleratesZeros covers the one input class where bitwise equality
// is not guaranteed by construction: exact zeros take the naive engine's skip
// branch. The contract there is the documented 1e-9 agreement.
func TestBlockedToleratesZeros(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	m, k, n := 9, 37, 21
	a := randSlice(rng, m*k)
	b := randSlice(rng, k*n)
	for i := 0; i < len(a); i += 3 {
		a[i] = 0
	}
	for i := 0; i < len(b); i += 4 {
		b[i] = 0
	}
	got := make([]float64, m*n)
	want := make([]float64, m*n)
	gemmPacked(a, false, m, k, b, n, got)
	matMulNaive(a, m, k, b, n, want)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("out[%d] = %g vs %g beyond 1e-9", i, got[i], want[i])
		}
	}
}

// TestIm2ColBatchMatchesPerImage checks the whole-batch column matrix holds
// exactly the per-image expansions in its column blocks.
func TestIm2ColBatchMatchesPerImage(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	g := ConvGeom{InC: 3, InH: 9, InW: 7, K: 3, Stride: 2, Pad: 1}
	nBatch := 4
	cols := g.OutH() * g.OutW()
	ck := g.InC * g.K * g.K
	imgLen := g.InC * g.InH * g.InW
	imgs := randSlice(rng, nBatch*imgLen)

	batch := make([]float64, ck*nBatch*cols)
	Im2ColBatch(imgs, nBatch, g, batch)
	single := make([]float64, ck*cols)
	for b := 0; b < nBatch; b++ {
		Im2Col(imgs[b*imgLen:(b+1)*imgLen], g, single)
		for r := 0; r < ck; r++ {
			for j := 0; j < cols; j++ {
				if got, want := batch[r*nBatch*cols+b*cols+j], single[r*cols+j]; got != want {
					t.Fatalf("img %d row %d col %d: %g vs %g", b, r, j, got, want)
				}
			}
		}
	}
}

// TestCol2ImAdjointIdentity verifies <col, Im2Col(x)> == <Col2Im(col), x>
// (within accumulation-order rounding), the defining property of the
// backward scatter — batch variant included.
func TestCol2ImAdjointIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	for _, g := range []ConvGeom{
		{InC: 2, InH: 8, InW: 8, K: 3, Stride: 1, Pad: 1},
		{InC: 3, InH: 9, InW: 7, K: 3, Stride: 2, Pad: 1},
		{InC: 1, InH: 6, InW: 6, K: 1, Stride: 2, Pad: 0},
	} {
		nBatch := 3
		cols := g.OutH() * g.OutW()
		ck := g.InC * g.K * g.K
		imgLen := g.InC * g.InH * g.InW
		x := randSlice(rng, nBatch*imgLen)
		c := randSlice(rng, ck*nBatch*cols)

		fx := make([]float64, ck*nBatch*cols)
		Im2ColBatch(x, nBatch, g, fx)
		aty := make([]float64, nBatch*imgLen)
		Col2ImBatch(c, nBatch, g, aty)

		var lhs, rhs float64
		for i := range fx {
			lhs += c[i] * fx[i]
		}
		for i := range x {
			rhs += aty[i] * x[i]
		}
		scale := math.Abs(lhs) + math.Abs(rhs) + 1
		if math.Abs(lhs-rhs) > 1e-9*scale {
			t.Fatalf("geom %+v: <c, Ax> = %g but <A^T c, x> = %g", g, lhs, rhs)
		}
	}
}

// TestEnsureReusesStorage pins the cap-checked scratch semantics the nn
// layer caches depend on.
func TestEnsureReusesStorage(t *testing.T) {
	a := New(2, 3, 4, 4)
	b := Ensure(a, 1, 3, 4, 4)
	if &b.Data[0] != &a.Data[0] || b.Len() != 48 {
		t.Fatal("Ensure did not reuse storage for a smaller shape")
	}
	c := Ensure(b, 4, 3, 4, 4)
	if c == b && cap(c.Data) < 4*3*4*4 {
		t.Fatal("Ensure returned undersized tensor")
	}
	if d := Ensure(nil, 1, 1, 2, 2); d.Len() != 4 {
		t.Fatalf("Ensure(nil) shape %s", d.ShapeString())
	}
}

// TestGEMMSteadyStateAllocs enforces the pooled-scratch contract: once the
// size-class pools are warm, the blocked kernels allocate nothing. The
// off-block shape exercises the remainder paths too.
func TestGEMMSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool randomly drops puts under the race detector")
	}
	rng := rand.New(rand.NewSource(17))
	const m, k, n = 13, 70, 530
	a := randSlice(rng, m*k)
	at := randSlice(rng, k*m)
	b := randSlice(rng, k*n)
	bt := randSlice(rng, n*k)
	g := ConvGeom{InC: 10, InH: 7, InW: 53, K: 3, Stride: 1, Pad: 1}
	ck, cols := g.InC*g.K*g.K, 2*g.OutH()*g.OutW() // a second 512-wide panel
	w := randSlice(rng, m*ck)
	wp := make([]float64, m*ck)
	packA(w, false, m, ck, wp)
	imgs := randSlice(rng, 2*g.InC*g.InH*g.InW)
	out := make([]float64, m*n)
	outABT := make([]float64, m*n)
	outConv := make([]float64, m*cols)
	step := func() {
		MatMul(a, m, k, b, n, out)
		MatMulATB(at, k, m, b[:k*n], n, out)
		MatMulABT(a, m, k, bt, n, outABT[:m*n])
		ConvPacked(wp, m, imgs, 2, g, outConv)
	}
	step()
	step()
	if avg := testing.AllocsPerRun(10, step); avg != 0 {
		t.Fatalf("blocked GEMM kernels allocate %.1f times per run at steady state", avg)
	}
}

// fuzzOperand fills a slice with finite values over a wide exponent range
// (products stay far from overflow) and plants +0 and -0 among them.
func fuzzOperand(rng *rand.Rand, n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		switch rng.Intn(8) {
		case 0:
			s[i] = 0
		case 1:
			s[i] = math.Copysign(0, -1)
		default:
			s[i] = math.Ldexp(rng.NormFloat64(), rng.Intn(41)-20)
		}
	}
	return s
}

// FuzzGEMM holds every GEMM path to the naive loops, bitwise (±0 included),
// over fuzzed shapes and data, on every engine the host runs. Signed zeros
// cannot break the equality: an accumulator starting at +0 never becomes
// -0, so adding a ±0 product leaves it unchanged, exactly as the naive
// loops' zero-skip does. The conv entry runs as a 1x1 convolution of one
// k-channel 1 x n image, whose column matrix is B itself.
func FuzzGEMM(f *testing.F) {
	f.Add(uint8(3), uint16(8), uint16(14), int64(1))
	f.Add(uint8(7), uint16(514), uint16(48), int64(2))
	f.Add(uint8(19), uint16(256), uint16(599), int64(3))
	f.Fuzz(func(t *testing.T, mb uint8, kb, nb uint16, seed int64) {
		m, k, n := 1+int(mb)%20, 1+int(kb)%600, 1+int(nb)%600
		rng := rand.New(rand.NewSource(seed))
		a := fuzzOperand(rng, m*k)
		b := fuzzOperand(rng, k*n)
		bt := fuzzOperand(rng, n*k)
		at := make([]float64, k*m)
		for i := 0; i < m; i++ {
			for kk := 0; kk < k; kk++ {
				at[kk*m+i] = a[i*k+kk]
			}
		}
		ap := make([]float64, m*k)
		packA(a, false, m, k, ap)
		want := make([]float64, m*n)
		wantATB := make([]float64, m*n)
		wantABT := make([]float64, m*n)
		matMulNaive(a, m, k, b, n, want)
		matMulATBNaive(at, k, m, b, n, wantATB)
		matMulABTNaive(a, m, k, bt, n, wantABT)
		got := make([]float64, m*n)
		for _, e := range hostEngines() {
			check := func(name string, want []float64) {
				t.Helper()
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%s %s m=%d k=%d n=%d: out[%d] = %g vs naive %g", name, e.name, m, k, n, i, got[i], want[i])
					}
				}
			}
			withEngine(e, func() {
				MatMul(a, m, k, b, n, got)
				check("MatMul", want)
				ConvPacked(ap, m, b, 1, ConvGeom{InC: k, InH: 1, InW: n, K: 1, Stride: 1}, got)
				check("ConvPacked", want)
				MatMulATB(at, k, m, b, n, got)
				check("MatMulATB", wantATB)
				MatMulABT(a, m, k, bt, n, got)
				check("MatMulABT", wantABT)
			})
		}
	})
}

// The Naive benchmarks A/B the blocked engine against the reference loops.
func benchGEMM(b *testing.B, m, k, n int, naive bool) {
	rng := rand.New(rand.NewSource(1))
	av := randSlice(rng, m*k)
	bv := randSlice(rng, k*n)
	out := make([]float64, m*n)
	mm := MatMul
	if naive {
		mm = matMulNaive
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mm(av, m, k, bv, n, out)
	}
}

func BenchmarkGEMMStemBlocked(b *testing.B) { benchGEMM(b, 8, 49, 12544, false) }
func BenchmarkGEMMStemNaive(b *testing.B)   { benchGEMM(b, 8, 49, 12544, true) }
func BenchmarkGEMMMidBlocked(b *testing.B)  { benchGEMM(b, 48, 288, 784, false) }
func BenchmarkGEMMMidNaive(b *testing.B)    { benchGEMM(b, 48, 288, 784, true) }
