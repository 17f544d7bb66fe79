package litho

import (
	"math"
	"math/rand"
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
