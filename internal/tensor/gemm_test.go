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
// kernel's paths each get a shape: n = 8..15 covers every column residue
// mod 8 (8-column blocks, the 4-column block, the masked 1..3 tail),
// n = 49 is six blocks plus one masked column (stage 4 at batch 1), n = 196
// ends on a 4-column block, k = 257 and 515 reach a second and third kc
// panel, and m not a multiple of 4 runs the remainder kernel.
func gemmShapes(rng *rand.Rand) [][3]int {
	shapes := [][3]int{
		{1, 1, 1}, {1, 7, 1}, {4, 1, 4}, {3, 5, 2}, {5, 3, 9},
		{4, 4, 4}, {8, 49, 33}, {13, 17, 19}, {64, 256, 512},
		{65, 257, 513}, {2, 300, 600}, {48, 144, 784},
		{8, 37, 49}, {4, 64, 196}, {12, 257, 49}, {6, 515, 196}, {7, 515, 15},
	}
	for n := 8; n <= 15; n++ {
		shapes = append(shapes, [3]int{4 + n%5, 9 + n, n})
	}
	for i := 0; i < 8; i++ {
		shapes = append(shapes, [3]int{1 + rng.Intn(70), 1 + rng.Intn(300), 1 + rng.Intn(600)})
	}
	return shapes
}

// TestBlockedMatMulMatchesNaive is the kernel contract: on finite inputs the
// blocked engine reproduces the naive reference bit for bit (ascending-k
// accumulation per element), across remainder tiles and degenerate edges.
func TestBlockedMatMulMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, sh := range gemmShapes(rng) {
		m, k, n := sh[0], sh[1], sh[2]
		a := randSlice(rng, m*k)
		b := randSlice(rng, k*n)
		got := make([]float64, m*n)
		want := make([]float64, m*n)
		gemmPacked(a, false, m, k, b, n, got)
		matMulNaive(a, m, k, b, n, want)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("MatMul m=%d k=%d n=%d: out[%d] = %g (blocked) vs %g (naive), diff %g",
					m, k, n, i, got[i], want[i], got[i]-want[i])
			}
		}
	}
}

// TestMatMulPackedMatchesNaive holds the pre-packed entry point to the same
// contract, with A packed once by packA.
func TestMatMulPackedMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for _, sh := range gemmShapes(rng) {
		m, k, n := sh[0], sh[1], sh[2]
		a := randSlice(rng, m*k)
		b := randSlice(rng, k*n)
		ap := make([]float64, m*k)
		packA(a, false, m, k, ap)
		got := make([]float64, m*n)
		want := make([]float64, m*n)
		MatMulPacked(ap, m, k, b, n, got)
		matMulNaive(a, m, k, b, n, want)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("MatMulPacked m=%d k=%d n=%d: out[%d] = %g vs %g", m, k, n, i, got[i], want[i])
			}
		}
	}
}

// TestPackALayout pins the packed layout MatMulPacked documents, which
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
	ap := make([]float64, m*k)
	packA(a, false, m, k, ap)
	out := make([]float64, m*n)
	outABT := make([]float64, m*n)
	step := func() {
		MatMul(a, m, k, b, n, out)
		MatMulATB(at, k, m, b[:k*n], n, out)
		MatMulABT(a, m, k, bt, n, outABT[:m*n])
		MatMulPacked(ap, m, k, b, n, out)
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
// over fuzzed shapes and data. Signed zeros cannot break the equality:
// an accumulator starting at +0 never becomes -0, so adding a ±0 product
// leaves it unchanged, exactly as the naive loops' zero-skip does.
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
		got := make([]float64, m*n)
		check := func(name string) {
			t.Helper()
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s m=%d k=%d n=%d: out[%d] = %g vs naive %g", name, m, k, n, i, got[i], want[i])
				}
			}
		}
		matMulNaive(a, m, k, b, n, want)
		MatMul(a, m, k, b, n, got)
		check("MatMul")
		MatMulPacked(ap, m, k, b, n, got)
		check("MatMulPacked")
		matMulATBNaive(at, k, m, b, n, want)
		MatMulATB(at, k, m, b, n, got)
		check("MatMulATB")
		matMulABTNaive(a, m, k, bt, n, want)
		MatMulABT(a, m, k, bt, n, got)
		check("MatMulABT")
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
