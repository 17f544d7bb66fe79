package litho

import (
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// A dihedral symmetry of the raster grid, applied to a row-major w x h
// raster; it returns the image and its size.
type dihedral struct {
	name  string
	apply func(src []float64, w, h int) (dst []float64, dw, dh int)
}

var dihedrals = []dihedral{
	{"transpose", func(src []float64, w, h int) ([]float64, int, int) {
		dst := make([]float64, len(src))
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				dst[x*h+y] = src[y*w+x]
			}
		}
		return dst, h, w
	}},
	{"x-flip", func(src []float64, w, h int) ([]float64, int, int) {
		dst := make([]float64, len(src))
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				dst[y*w+w-1-x] = src[y*w+x]
			}
		}
		return dst, w, h
	}},
	{"y-flip", func(src []float64, w, h int) ([]float64, int, int) {
		dst := make([]float64, len(src))
		for y := 0; y < h; y++ {
			copy(dst[(h-1-y)*w:(h-y)*w], src[y*w:(y+1)*w])
		}
		return dst, w, h
	}},
}

// requireNear fails unless got and want agree to 1e-12 of want's largest
// magnitude.
func requireNear(t *testing.T, label string, got, want []float64) {
	t.Helper()
	scale := 0.0
	for _, v := range want {
		scale = math.Max(scale, math.Abs(v))
	}
	for i := range want {
		if d := math.Abs(got[i] - want[i]); d > 1e-12*scale {
			t.Fatalf("%s: pixel %d differs by %g (field max %g)", label, i, d, scale)
		}
	}
}

// TestDihedralCommutesWithAerial is a metamorphic test of the optical
// model: the Gaussian kernel bank is exactly symmetric under transposition
// and axis flips, and zero-padded "same" convolution commutes with any
// symmetry of the kernel, so simulating a transformed mask must give the
// transformed image and per-kernel fields, and the adjoint pass fed the
// transformed gradient and fields must give the transformed mask gradient.
// The 136x20 raster at 8 nm pads to a 256x128 plan and its transpose to a
// 128x256 one, so the transposition checks the real row transforms and the
// column pass against each other.
func TestDihedralCommutesWithAerial(t *testing.T) {
	for _, c := range []struct {
		name string
		w, h int
		p    Params
	}{{"136x136@4nm", 136, 136, DefaultParams()}, {"136x20@8nm", 136, 20, FastParams()}} {
		t.Run(c.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(31))
			sim, err := NewSimulator(c.w, c.h, c.p)
			if err != nil {
				t.Fatal(err)
			}
			mask := randMask(rng, c.w*c.h)
			gradI := make([]float64, c.w*c.h)
			for i := range gradI {
				gradI[i] = rng.NormFloat64()
			}
			aerial := make([]float64, c.w*c.h)
			fields := sim.NewFields()
			sim.Aerial(mask, aerial, fields)
			grad := make([]float64, c.w*c.h)
			sim.AerialBackward(gradI, fields, grad)

			for _, d := range dihedrals {
				tmask, tw, th := d.apply(mask, c.w, c.h)
				tsim, err := NewSimulator(tw, th, c.p)
				if err != nil {
					t.Fatal(err)
				}
				taerial := make([]float64, tw*th)
				tfields := tsim.NewFields()
				tsim.Aerial(tmask, taerial, tfields)
				want, _, _ := d.apply(aerial, c.w, c.h)
				requireNear(t, d.name+" aerial", taerial, want)
				for k, amp := range fields.Amp {
					want, _, _ := d.apply(amp, c.w, c.h)
					requireNear(t, d.name+" field "+string(rune('0'+k)), tfields.Amp[k], want)
				}

				tgradI, _, _ := d.apply(gradI, c.w, c.h)
				moved := &Fields{Amp: make([][]float64, len(fields.Amp))}
				for k, amp := range fields.Amp {
					moved.Amp[k], _, _ = d.apply(amp, c.w, c.h)
				}
				tgrad := make([]float64, tw*th)
				tsim.AerialBackward(tgradI, moved, tgrad)
				want, _, _ = d.apply(grad, c.w, c.h)
				requireNear(t, d.name+" backward", tgrad, want)
			}
		})
	}
}

// shifted returns the row-major w x h raster src moved right by dx and down
// by dy whole pixels (both >= 0), zero-filled behind; what moves past the
// far edges is dropped.
func shifted(src []float64, w, h, dx, dy int) []float64 {
	dst := make([]float64, len(src))
	for y := 0; y+dy < h; y++ {
		copy(dst[(y+dy)*w+dx:(y+dy+1)*w], src[y*w:y*w+w-dx])
	}
	return dst
}

// TestShiftCommutesWithAerial is the translation counterpart of the
// dihedral test. A layout patch starts a kernel radius r clear of the top
// and left borders and moves by whole pixels until it touches the right
// border, the bottom one, or both. Zero-padded "same" convolution commutes
// with that shift: the unshifted image and gradient are zero for r pixels
// beyond the patch, so nothing the shifted ones hold comes from outside
// the raster. The aerial image, the per-kernel fields and the
// AerialBackward gradient (fed an image gradient on the patch, moved with
// it) must therefore move by the same pixels, zero-filled behind. The
// rasters pad to a 256x256 plan at 4 nm and a 128x128 one at 8 nm; a plan
// padded short of side+r (128 or 64) would make the convolution circular
// and wrap the moved patch's image around onto the top and left rows,
// where the reference is zero. A centred test cannot see that wrap.
func TestShiftCommutesWithAerial(t *testing.T) {
	for _, c := range []struct {
		name        string
		side, patch int
		p           Params
	}{{"128px@4nm", 128, 24, DefaultParams()}, {"64px@8nm", 64, 12, FastParams()}} {
		t.Run(c.name, func(t *testing.T) {
			n := c.side
			r := (MaxKernelSize(BuildKernelBank(c.p)) - 1) / 2
			sim, err := NewSimulator(n, n, c.p)
			if err != nil {
				t.Fatal(err)
			}
			simulate := func(mask, gradI []float64) (aerial []float64, fields *Fields, grad []float64) {
				aerial, fields, grad = make([]float64, n*n), sim.NewFields(), make([]float64, n*n)
				sim.Aerial(mask, aerial, fields)
				sim.AerialBackward(gradI, fields, grad)
				return aerial, fields, grad
			}
			rng := rand.New(rand.NewSource(41))
			mask := make([]float64, n*n)
			gradI := make([]float64, n*n)
			for y := r; y < r+c.patch; y++ {
				for x := r; x < r+c.patch; x++ {
					mask[y*n+x] = rng.Float64()
					gradI[y*n+x] = rng.NormFloat64()
				}
			}
			aerial, fields, grad := simulate(mask, gradI)

			d := n - r - c.patch // moves the patch onto the far border
			for _, s := range [][2]int{{d, d}, {d, 1}, {2, d}} {
				move := func(src []float64) []float64 { return shifted(src, n, n, s[0], s[1]) }
				label := "shift " + strconv.Itoa(s[0]) + "," + strconv.Itoa(s[1])
				saerial, sfields, sgrad := simulate(move(mask), move(gradI))
				requireNear(t, label+" aerial", saerial, move(aerial))
				for k, amp := range fields.Amp {
					requireNear(t, label+" field "+strconv.Itoa(k), sfields.Amp[k], move(amp))
				}
				requireNear(t, label+" backward", sgrad, move(grad))
			}
		})
	}
}
