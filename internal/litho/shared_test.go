package litho

import (
	"math/rand"
	"testing"
)

// TestSimulatorsShareImmutableCore: two simulators of the same geometry get
// the same plan and kernel spectra (pointer-identical), and still produce
// bitwise-identical images — sharing is a pure construction-cost optimization.
func TestSimulatorsShareImmutableCore(t *testing.T) {
	p := FastParams()
	a, err := NewSimulator(64, 64, p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSimulator(64, 64, p)
	if err != nil {
		t.Fatal(err)
	}
	if a.plan != b.plan {
		t.Fatal("same-geometry simulators built distinct plans")
	}
	for k := range a.kffts {
		if &a.kffts[k][0] != &b.kffts[k][0] {
			t.Fatalf("kernel %d spectrum not shared", k)
		}
	}
	rng := rand.New(rand.NewSource(11))
	mask := make([]float64, 64*64)
	for i := range mask {
		mask[i] = rng.Float64()
	}
	outA := make([]float64, len(mask))
	outB := make([]float64, len(mask))
	a.Aerial(mask, outA, nil)
	b.Aerial(mask, outB, nil)
	for i := range outA {
		if outA[i] != outB[i] {
			t.Fatalf("shared-core simulators diverge at %d: %v vs %v", i, outA[i], outB[i])
		}
	}
}

// TestCheckRasterBound pins the transform-size limit at its edge: at 4 nm
// the bank's largest kernel is 111 px, so a 3986 px side pads to 4096 and
// one more pixel would need 8192. NewSimulator refuses what CheckRaster
// refuses, before building anything.
func TestCheckRasterBound(t *testing.T) {
	p := DefaultParams()
	if ks := MaxKernelSize(BuildKernelBank(p)); ks != 111 {
		t.Fatalf("4 nm kernel size %d, want 111", ks)
	}
	if err := CheckRaster(3986, 10, p); err != nil {
		t.Fatalf("largest admissible raster refused: %v", err)
	}
	for _, wh := range [][2]int{{3987, 10}, {10, 3987}, {50000, 50000}, {0, 10}} {
		if err := CheckRaster(wh[0], wh[1], p); err == nil {
			t.Fatalf("raster %dx%d admitted", wh[0], wh[1])
		}
		if _, err := NewSimulator(wh[0], wh[1], p); err == nil {
			t.Fatalf("NewSimulator built a %dx%d simulator", wh[0], wh[1])
		}
	}
}
