package fft

import (
	"math"
	"math/rand"
	"testing"
)

// plantedComplex returns n random complex values with signed zeros and
// subnormals planted in about one component in eight, the operands whose
// rounding and sign rules a reordered or fused evaluation would betray.
func plantedComplex(rng *rand.Rand, n int) []complex128 {
	special := []float64{
		math.Copysign(0, -1), 0,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.Float64frombits(0x000f_ffff_ffff_ffff),  // largest subnormal
		-math.Float64frombits(0x0000_0000_1234_5678), // small negative subnormal
	}
	x := make([]complex128, n)
	for i := range x {
		re, im := rng.NormFloat64(), rng.NormFloat64()
		if rng.Intn(8) == 0 {
			re = special[rng.Intn(len(special))]
		}
		if rng.Intn(8) == 0 {
			im = special[rng.Intn(len(special))]
		}
		x[i] = complex(re, im)
	}
	return x
}

// engines lists the FFT engines this host can run: the scalar one always,
// the vector one where the CPU has it.
func engines() []bool {
	if haveFFTASM {
		return []bool{false, true}
	}
	return []bool{false}
}

// colWidths are the raster widths the column pass is pinned at: the
// degenerate ones, odd widths around the vector pair boundary, and the
// half-spectrum widths PW/2+1 of every plan from PW = 32 to 4096.
var colWidths = []int{1, 2, 3, 4, 17, 65, 129, 257, 2049}

// TestColumnPassMatchesStripOracle pins the in-place row-butterfly column
// pass to the strip pass it replaced (oracle_test.go), which gathers each
// column and runs transformWith on it: for every plan-reachable column
// length, every pinned width, both directions and both engines, the two
// agree through Float64bits on data with signed zeros and subnormals. To
// keep the test's footprint near 50 MB, the sweep skips rasters larger
// than 257x4096 values (16.8 MB each): width 2049 runs up to h = 512, and
// every other width up to h = 4096.
func TestColumnPassMatchesStripOracle(t *testing.T) {
	const maxValues = 257 * 4096
	rng := rand.New(rand.NewSource(707))
	for _, h := range planSizes {
		tw := tablesFor(h)
		strip := make([]complex128, colBlock*h)
		for _, w := range colWidths {
			if w*h > maxValues {
				continue
			}
			data := plantedComplex(rng, w*h)
			got := make([]complex128, w*h)
			want := make([]complex128, w*h)
			for _, vec := range engines() {
				for _, inverse := range []bool{false, true} {
					copy(got, data)
					copy(want, data)
					transformCols(got, w, h, tw, inverse, vec)
					stripCols(want, w, h, tw, inverse, strip, vec)
					diffComplex(t, colLabel(w, h, inverse, vec), got, want)
				}
			}
		}
	}
}

func colLabel(w, h int, inverse, vec bool) string {
	label := "cols " + itoa(w) + "x" + itoa(h)
	if inverse {
		label += "/inv"
	} else {
		label += "/fwd"
	}
	if vec {
		return label + "/vector"
	}
	return label + "/scalar"
}

// TestColumnPassLengthPanic: a raster whose length does not match the
// geometry, or tables of another length, are refused.
func TestColumnPassLengthPanic(t *testing.T) {
	for _, c := range []struct{ n, w, h, tn int }{{15, 4, 4, 4}, {16, 4, 4, 8}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("transformCols(len %d, %dx%d, tables %d) did not panic", c.n, c.w, c.h, c.tn)
				}
			}()
			transformCols(make([]complex128, c.n), c.w, c.h, tablesFor(c.tn), false, false)
		}()
	}
}

// stripPlan runs a plan's transforms the way they ran before the column
// pass went in place: row transforms into natural row order, then the strip
// pass over whole columns. The plan writes its rows at bit-reversed
// positions instead and skips the permutation where it produces the rows
// itself, which must not move a bit.
type stripPlan struct {
	p     *Plan
	strip []complex128
	rrow  []float64
	crow  []complex128
}

func newStripPlan(p *Plan) *stripPlan {
	return &stripPlan{p: p, strip: make([]complex128, colBlock*p.PH), rrow: make([]float64, p.PW),
		crow: make([]complex128, p.PW/2)}
}

// forward returns the half spectrum of the real rows x (PH rows of width
// src, missing rows zero).
func (o *stripPlan) forward(x []float64, src, rows int) []complex128 {
	p := o.p
	spec := make([]complex128, p.SpecLen())
	for y := 0; y < rows; y++ {
		rfftRow(spec[y*p.HW:(y+1)*p.HW], x[y*src:(y+1)*src], o.crow, p.twHalf, p.twRow, p.vec)
	}
	stripCols(spec, p.HW, p.PH, p.twCol, false, o.strip, p.vec)
	return spec
}

// inverse inverse-transforms freq (destroyed) into the W x H out.
func (o *stripPlan) inverse(freq []complex128, out []float64) {
	p := o.p
	stripCols(freq, p.HW, p.PH, p.twCol, true, o.strip, p.vec)
	norm := 1 / float64(p.PH)
	for y := 0; y < p.H; y++ {
		irfftRow(o.rrow, freq[y*p.HW:(y+1)*p.HW], o.crow, p.twHalf, p.twRow, 1, p.vec)
		for x := 0; x < p.W; x++ {
			out[y*p.W+x] = o.rrow[x] * norm
		}
	}
}

// TestPlanMatchesStripPipeline pins every Plan entry point — kernel
// transform, forward spectrum, convolution, correlation and the fused
// inverse — bitwise to the natural-order strip pipeline, on both engines
// and on geometries with odd, degenerate and non-square padded sizes.
func TestPlanMatchesStripPipeline(t *testing.T) {
	rng := rand.New(rand.NewSource(808))
	for _, g := range [][4]int{{37, 29, 7, 5}, {1, 1, 1, 1}, {2, 1, 1, 1}, {1, 6, 1, 3}, {64, 5, 3, 1}, {40, 130, 11, 25}} {
		w, h, kw, kh := g[0], g[1], g[2], g[3]
		img := randImage(rng, w*h)
		kernel := randImage(rng, kw*kh)
		for _, vec := range engines() {
			p := newPlan(w, h, kw, kh, vec)
			o := newStripPlan(p)
			label := colLabel(p.HW, p.PH, false, vec)

			kf := p.TransformKernel(kernel)
			diffComplex(t, label+" kernel", kf, o.forward(p.wrapKernel(kernel), p.PW, p.PH))
			s := p.NewScratch()
			spec := p.ForwardInto(s, img)
			want := o.forward(img, w, h)
			diffComplex(t, label+" forward", spec, want)

			got, ref := make([]float64, w*h), make([]float64, w*h)
			for _, conj := range []bool{false, true} {
				p.ApplySpecWith(s, spec, kf, got, conj)
				prod := make([]complex128, p.SpecLen())
				for i, k := range kf {
					if conj {
						k = complex(real(k), -imag(k))
					}
					prod[i] = want[i] * k
				}
				o.inverse(prod, ref)
				diffFloat(t, label+" apply", got, ref)
			}

			acc := randComplex(rng, p.SpecLen())
			accRef := append([]complex128(nil), acc...)
			p.InverseSpec(s, acc, got)
			o.inverse(accRef, ref)
			diffFloat(t, label+" inverse-spec", got, ref)
		}
	}
}
