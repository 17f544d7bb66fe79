package litho

import (
	"math"
	"testing"
	"testing/quick"
)

func TestGaussianKernelIsotropic(t *testing.T) {
	k := NewGaussianKernel(4, 3, 1)
	n := k.Size
	for y := 0; y < n; y++ {
		for x := 0; x < n; x++ {
			// Rotating the kernel a quarter turn maps (x,y) to
			// (y, n-1-x); isotropy demands equality.
			if math.Abs(k.Data[y*n+x]-k.Data[(n-1-x)*n+y]) > 1e-15 {
				t.Fatalf("kernel not isotropic at (%d,%d)", x, y)
			}
		}
	}
}

func TestGaussianKernelMonotoneRadial(t *testing.T) {
	k := NewGaussianKernel(5, 3, 1)
	c := k.Size / 2
	for r := 1; r <= c; r++ {
		if k.Data[c*k.Size+c-r] > k.Data[c*k.Size+c-r+1] {
			continue
		}
		if k.Data[c*k.Size+c+r] >= k.Data[c*k.Size+c+r-1] {
			t.Fatalf("kernel not radially decreasing at r=%d", r)
		}
	}
}

func TestGaussianKernelPanicsOnBadSigma(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewGaussianKernel(0, 3, 1)
}

func TestPadKernelPreservesValues(t *testing.T) {
	k := NewGaussianKernel(2, 2, 1)
	padded := padKernel(k, k.Size+4)
	// Total mass unchanged.
	var sum float64
	for _, v := range padded {
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("padded sum = %g", sum)
	}
	// Center value unchanged.
	n := k.Size + 4
	if padded[(n/2)*n+n/2] != k.Data[(k.Size/2)*k.Size+k.Size/2] {
		t.Fatal("padding moved the kernel center")
	}
}

func TestPadKernelPanics(t *testing.T) {
	k := NewGaussianKernel(2, 2, 1)
	for _, size := range []int{k.Size - 2, k.Size + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("pad to %d did not panic", size)
				}
			}()
			padKernel(k, size)
		}()
	}
}

func TestAerialLinearInGainQuick(t *testing.T) {
	// Property: intensity scales linearly with Gain, the identity
	// PaperParams relies on to keep the printed contour fixed.
	base := FastParams()
	base.Sigma = 16
	base.DefocusWeight = 0
	simBase, err := NewSimulator(32, 32, base)
	if err != nil {
		t.Fatal(err)
	}
	mask := make([]float64, 32*32)
	for i := range mask {
		mask[i] = float64(i%5) / 5
	}
	ref := make([]float64, len(mask))
	simBase.Aerial(mask, ref, nil)

	f := func(raw uint8) bool {
		gain := 0.1 + float64(raw%40)/10 // [0.1, 4.0]
		p := base
		p.Gain = gain
		sim, err := NewSimulator(32, 32, p)
		if err != nil {
			return false
		}
		out := make([]float64, len(mask))
		sim.Aerial(mask, out, nil)
		for i := range out {
			if math.Abs(out[i]-gain*ref[i]) > 1e-9*(1+gain) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestMaxKernelSize(t *testing.T) {
	bank := []Kernel{NewGaussianKernel(2, 2, 0.5), NewGaussianKernel(4, 2, 0.5)}
	if got := MaxKernelSize(bank); got != bank[1].Size {
		t.Fatalf("max size = %d", got)
	}
	if MaxKernelSize(nil) != 0 {
		t.Fatal("empty bank max size")
	}
}

// TestBankKernelSizeMatchesBank holds the size CheckRaster computes from
// the params to the largest kernel BuildKernelBank builds: on the three
// profiles, and on a sub-pixel sigma (r rounds up to 1, size 3), an
// unweighted defocus kernel that is not built (so its wider sigma must not
// count), a defocus kernel narrower than the primary, and supports that
// put sigma·support just above and just below an integer.
func TestBankKernelSizeMatchesBank(t *testing.T) {
	cases := map[string]Params{
		"default": DefaultParams(),
		"fast":    FastParams(),
		"paper":   PaperParams(),
	}
	edit := func(name string, mut func(*Params)) {
		p := DefaultParams()
		mut(&p)
		if err := p.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cases[name] = p
	}
	edit("subpixel", func(p *Params) { p.Sigma, p.DefocusSigma, p.KernelSupport = 0.5, 0.25, 1 })
	edit("tiny-support", func(p *Params) { p.KernelSupport = 1e-9 })
	edit("no-defocus", func(p *Params) { p.DefocusWeight = 0; p.DefocusSigma = 400 })
	edit("narrow-defocus", func(p *Params) { p.DefocusSigma = 10 })
	edit("support-above-int", func(p *Params) { p.Resolution, p.Sigma, p.KernelSupport = 5, 50, 2.0000001 })
	edit("support-below-int", func(p *Params) { p.Resolution, p.Sigma, p.KernelSupport = 5, 50, 1.9999999 })
	edit("fractional", func(p *Params) { p.Resolution, p.Sigma, p.DefocusSigma, p.KernelSupport = 7, 33, 61, 2.35 })
	want := map[string]int{"subpixel": 3, "tiny-support": 3}
	for name, p := range cases {
		bank := BuildKernelBank(p)
		got := bankKernelSize(p)
		if got != MaxKernelSize(bank) {
			t.Errorf("%s: bankKernelSize = %d, the bank's largest kernel is %d", name, got, MaxKernelSize(bank))
		}
		if w, ok := want[name]; ok && got != w {
			t.Errorf("%s: bankKernelSize = %d, want %d", name, got, w)
		}
	}
	if p := cases["no-defocus"]; len(BuildKernelBank(p)) != 1 {
		t.Fatal("an unweighted defocus kernel was built")
	}
}
