package grid

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"ldmo/internal/geom"
)

func TestNewPanicsOnBadDims(t *testing.T) {
	for _, c := range [][3]int{{0, 5, 1}, {5, 0, 1}, {5, 5, 0}, {-1, 5, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%v) did not panic", c)
				}
			}()
			New(c[0], c[1], c[2], geom.Point{})
		}()
	}
}

func TestAtSetBounds(t *testing.T) {
	g := New(4, 3, 1, geom.Point{})
	g.Set(2, 1, 7)
	if g.At(2, 1) != 7 {
		t.Fatal("Set/At roundtrip failed")
	}
	if g.At(-1, 0) != 0 || g.At(4, 0) != 0 || g.At(0, 3) != 0 {
		t.Fatal("out-of-bounds At must be 0")
	}
	g.Set(-1, -1, 9) // must not panic
	g.Set(99, 99, 9)
}

func TestFillRectAreaMatchesGeometry(t *testing.T) {
	// 1 nm/px grid: a w x h nm rect covers w*h pixel centers when aligned
	// to pixel boundaries.
	g := New(100, 100, 1, geom.Point{})
	g.FillRect(geom.RectWH(10, 20, 30, 40), 1)
	if got := g.Sum(); got != 30*40 {
		t.Fatalf("filled %g pixels, want 1200", got)
	}
}

func TestFillRectTranslationInvariantWidth(t *testing.T) {
	// Feature width in pixels must not depend on sub-resolution placement
	// beyond +-1 when shifting by whole pixels.
	g1 := New(100, 100, 2, geom.Point{})
	g1.FillRect(geom.RectWH(20, 20, 60, 60), 1)
	g2 := New(100, 100, 2, geom.Point{})
	g2.FillRect(geom.RectWH(20+2*7, 20, 60, 60), 1)
	if g1.Sum() != g2.Sum() {
		t.Fatalf("pixel-shift changed area: %g vs %g", g1.Sum(), g2.Sum())
	}
}

func TestFillRectClipped(t *testing.T) {
	g := New(10, 10, 1, geom.Point{})
	g.FillRect(geom.RectWH(-5, -5, 100, 100), 1) // covers all
	if g.Sum() != 100 {
		t.Fatalf("clipped fill sum = %g", g.Sum())
	}
	h := New(10, 10, 1, geom.Point{})
	h.FillRect(geom.RectWH(50, 50, 5, 5), 1) // entirely off-grid
	if h.Sum() != 0 {
		t.Fatal("off-grid rect must fill nothing")
	}
}

func TestOriginOffset(t *testing.T) {
	g := New(10, 10, 1, geom.Point{X: 100, Y: 200})
	g.FillRect(geom.RectWH(100, 200, 10, 10), 1)
	if g.Sum() != 100 {
		t.Fatalf("origin-offset fill sum = %g", g.Sum())
	}
}

func TestThreshold(t *testing.T) {
	g := New(2, 2, 1, geom.Point{})
	copy(g.Data, []float64{0.1, 0.5, 0.9, 0.49})
	b := g.Threshold(0.5)
	want := []float64{0, 1, 1, 0}
	for i := range want {
		if b.Data[i] != want[i] {
			t.Fatalf("threshold[%d] = %g", i, b.Data[i])
		}
	}
}

func TestL2Diff(t *testing.T) {
	g := New(2, 1, 1, geom.Point{})
	h := New(2, 1, 1, geom.Point{})
	g.Data[0], g.Data[1] = 1, 2
	h.Data[0], h.Data[1] = 0, 4
	if d := g.L2Diff(h); d != 1+4 {
		t.Fatalf("L2Diff = %g", d)
	}
	if d := g.L2Diff(g.Clone()); d != 0 {
		t.Fatalf("self L2Diff = %g", d)
	}
}

func TestL2DiffPanicsOnShapeMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2, 2, 1, geom.Point{}).L2Diff(New(3, 2, 1, geom.Point{}))
}

func TestResampleDownAveragePreservesMean(t *testing.T) {
	g := New(8, 8, 1, geom.Point{})
	for i := range g.Data {
		g.Data[i] = float64(i % 5)
	}
	d := g.Resample(4, 4)
	if math.Abs(d.Sum()/16-g.Sum()/64) > 1e-9 {
		t.Fatalf("mean not preserved: %g vs %g", d.Sum()/16, g.Sum()/64)
	}
}

func TestResampleUp(t *testing.T) {
	g := New(2, 2, 4, geom.Point{})
	copy(g.Data, []float64{1, 2, 3, 4})
	u := g.Resample(4, 4)
	if u.At(0, 0) != 1 || u.At(3, 3) != 4 || u.At(3, 0) != 2 || u.At(0, 3) != 3 {
		t.Fatalf("upsample corners wrong: %v", u.Data)
	}
}

func TestMinMax(t *testing.T) {
	g := New(2, 2, 1, geom.Point{})
	copy(g.Data, []float64{3, -1, 7, 0})
	lo, hi := g.MinMax()
	if lo != -1 || hi != 7 {
		t.Fatalf("minmax = %g %g", lo, hi)
	}
}

func TestCloneIndependent(t *testing.T) {
	g := New(2, 2, 1, geom.Point{})
	c := g.Clone()
	c.Data[0] = 5
	if g.Data[0] != 0 {
		t.Fatal("Clone shares storage")
	}
}

func TestComponentsSeparate(t *testing.T) {
	g := New(10, 10, 1, geom.Point{})
	g.FillRect(geom.RectWH(0, 0, 3, 3), 1)
	g.FillRect(geom.RectWH(6, 6, 3, 3), 1)
	_, n := g.Components()
	if n != 2 {
		t.Fatalf("components = %d, want 2", n)
	}
}

func TestComponentsBridged(t *testing.T) {
	g := New(10, 10, 1, geom.Point{})
	g.FillRect(geom.RectWH(0, 4, 4, 2), 1)
	g.FillRect(geom.RectWH(6, 4, 4, 2), 1)
	g.FillRect(geom.RectWH(3, 4, 4, 1), 1) // bridge
	_, n := g.Components()
	if n != 1 {
		t.Fatalf("bridged components = %d, want 1", n)
	}
}

func TestComponentsDiagonalNotConnected(t *testing.T) {
	g := New(4, 4, 1, geom.Point{})
	g.Set(0, 0, 1)
	g.Set(1, 1, 1)
	_, n := g.Components()
	if n != 2 {
		t.Fatalf("4-connectivity violated: n=%d", n)
	}
}

func TestComponentCountQuick(t *testing.T) {
	// Property: component count never exceeds the nonzero pixel count.
	f := func(seed uint32) bool {
		g := New(12, 12, 1, geom.Point{})
		s := seed
		nz := 0
		for i := range g.Data {
			s = s*1664525 + 1013904223
			if s%3 == 0 {
				g.Data[i] = 1
				nz++
			}
		}
		_, n := g.Components()
		return n <= nz && (nz == 0) == (n == 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWritePGM(t *testing.T) {
	g := New(3, 2, 1, geom.Point{})
	copy(g.Data, []float64{0, 0.5, 1, 1, 0.5, 0})
	var buf bytes.Buffer
	if err := g.WritePGM(&buf, 0, 1); err != nil {
		t.Fatal(err)
	}
	out := buf.Bytes()
	if !bytes.HasPrefix(out, []byte("P5\n3 2\n255\n")) {
		t.Fatalf("bad header: %q", out[:12])
	}
	px := out[len(out)-6:]
	// Top row written first = grid row y=1: {1, 0.5, 0}.
	if px[0] != 255 || px[2] != 0 || px[3] != 0 || px[5] != 255 {
		t.Fatalf("pixels = %v", px)
	}
}

func TestWriteCSV(t *testing.T) {
	g := New(2, 2, 1, geom.Point{})
	copy(g.Data, []float64{1, 2, 3, 4})
	var buf bytes.Buffer
	if err := g.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != "1,2\n3,4\n" {
		t.Fatalf("csv = %q", got)
	}
}

func TestASCII(t *testing.T) {
	g := New(4, 2, 1, geom.Point{})
	g.Fill(1)
	s := g.ASCII("", 0)
	if lines := strings.Count(s, "\n"); lines != 2 {
		t.Fatalf("ascii lines = %d", lines)
	}
}

func TestEqual(t *testing.T) {
	g := New(2, 2, 1, geom.Point{})
	h := g.Clone()
	if !g.Equal(h, 0) {
		t.Fatal("identical grids not Equal")
	}
	h.Data[0] = 1e-7
	if g.Equal(h, 1e-9) {
		t.Fatal("Equal ignored difference")
	}
	if !g.Equal(h, 1e-6) {
		t.Fatal("Equal ignored tolerance")
	}
	if g.Equal(New(3, 2, 1, geom.Point{}), 1) {
		t.Fatal("shape mismatch must not be Equal")
	}
}
