package decomp

import (
	"math/rand"
	"testing"
	"testing/quick"

	"ldmo/internal/geom"
	"ldmo/internal/layout"
	"ldmo/internal/simclock"
)

func pairLayout() layout.Layout {
	return layout.Layout{
		Name:   "pair",
		Window: geom.RectWH(0, 0, 512, 512),
		Patterns: []geom.Rect{
			geom.RectWH(100, 200, 70, 70),
			geom.RectWH(230, 200, 70, 70), // gap 60: SP pair
		},
	}
}

func TestNewCopiesAssign(t *testing.T) {
	l := pairLayout()
	assign := []uint8{0, 1}
	d := New(l, assign)
	assign[0] = 1
	if d.Assign[0] != 0 {
		t.Fatal("New did not copy assignment")
	}
}

func TestNewPanicsOnLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(pairLayout(), []uint8{0})
}

func TestCanonicalizeAndKey(t *testing.T) {
	l := pairLayout()
	a := New(l, []uint8{0, 1})
	b := New(l, []uint8{1, 0}) // dual of a
	if a.Key() != b.Key() {
		t.Fatalf("dual keys differ: %s vs %s", a.Key(), b.Key())
	}
	c := b.Canonicalize()
	if c.Assign[0] != 0 || c.Assign[1] != 1 {
		t.Fatalf("canonical form = %v", c.Assign)
	}
	// Canonicalization is idempotent.
	d := c.Canonicalize()
	if d.Key() != c.Key() || d.Assign[0] != 0 {
		t.Fatal("canonicalize not idempotent")
	}
}

func TestCanonicalizeIdempotentQuick(t *testing.T) {
	l8, err := layout.Cell("AOI211_X1")
	if err != nil {
		t.Fatal(err)
	}
	f := func(bits uint8) bool {
		assign := make([]uint8, len(l8.Patterns))
		for i := range assign {
			assign[i] = bits >> i & 1
		}
		d := New(l8, assign).Canonicalize()
		return d.Assign[0] == 0 && d.Canonicalize().Key() == d.Key()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMasksRasterize(t *testing.T) {
	d := New(pairLayout(), []uint8{0, 1})
	m1, m2 := d.Masks(4)
	if m1.W != 128 || m2.W != 128 {
		t.Fatalf("raster size %dx%d", m1.W, m1.H)
	}
	if m1.Sum() == 0 || m2.Sum() == 0 {
		t.Fatal("empty mask raster")
	}
	// The two masks must not overlap.
	for i := range m1.Data {
		if m1.Data[i] > 0 && m2.Data[i] > 0 {
			t.Fatal("masks overlap")
		}
	}
}

func TestGrayImageDualInvariant(t *testing.T) {
	l := pairLayout()
	a := New(l, []uint8{0, 1}).GrayImage(4, 64)
	b := New(l, []uint8{1, 0}).GrayImage(4, 64)
	if !a.Equal(b, 0) {
		t.Fatal("dual decompositions render differently")
	}
	if a.W != 64 || a.H != 64 {
		t.Fatalf("gray image size %dx%d", a.W, a.H)
	}
	lo, hi := a.MinMax()
	if lo != 0 || hi <= GrayMask1 {
		t.Fatalf("gray levels lo=%g hi=%g", lo, hi)
	}
}

func TestGrayImageNoResampleFastPath(t *testing.T) {
	d := New(pairLayout(), []uint8{0, 1})
	g := d.GrayImage(4, 128)
	if g.W != 128 {
		t.Fatalf("size %d", g.W)
	}
	// Levels must be exactly the two mask grays.
	seen05, seen10 := false, false
	for _, v := range g.Data {
		switch v {
		case 0:
		case GrayMask1:
			seen05 = true
		case GrayMask2:
			seen10 = true
		default:
			t.Fatalf("unexpected gray level %g", v)
		}
	}
	if !seen05 || !seen10 {
		t.Fatal("missing gray level")
	}
}

func TestValid(t *testing.T) {
	l := pairLayout()
	if !New(l, []uint8{0, 1}).Valid(80) {
		t.Fatal("separated SP pair reported invalid")
	}
	if New(l, []uint8{0, 0}).Valid(80) {
		t.Fatal("same-mask SP pair reported valid")
	}
}

func TestEnumerateAll(t *testing.T) {
	l, err := layout.Cell("INV_X1") // 3 patterns
	if err != nil {
		t.Fatal(err)
	}
	all := EnumerateAll(l)
	if len(all) != 4 { // 2^(3-1)
		t.Fatalf("enumerated %d, want 4", len(all))
	}
	keys := map[string]bool{}
	for _, d := range all {
		if d.Assign[0] != 0 {
			t.Fatal("non-canonical enumeration")
		}
		keys[d.Key()] = true
	}
	if len(keys) != 4 {
		t.Fatal("duplicate enumerations")
	}
	if EnumerateAll(layout.Layout{}) != nil {
		t.Fatal("empty layout must enumerate nil")
	}
}

func TestGenerateSeparatesAllSPPairs(t *testing.T) {
	gen := NewGenerator()
	for _, cell := range layout.Cells() {
		cands, err := gen.Generate(cell)
		if err != nil {
			t.Fatalf("%s: %v", cell.Name, err)
		}
		if len(cands) == 0 {
			t.Fatalf("%s: no candidates", cell.Name)
		}
		for _, d := range cands {
			if !d.Valid(gen.Classify.NMin) {
				t.Fatalf("%s: candidate %s leaves an SP pair on one mask", cell.Name, d.Key())
			}
		}
	}
}

func TestGenerateCanonicalAndDeduped(t *testing.T) {
	gen := NewGenerator()
	l, err := layout.Cell("AOI211_X1")
	if err != nil {
		t.Fatal(err)
	}
	cands, err := gen.Generate(l)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, d := range cands {
		if d.Assign[0] != 0 {
			t.Fatal("candidate not canonical")
		}
		if seen[d.Key()] {
			t.Fatalf("duplicate candidate %s", d.Key())
		}
		seen[d.Key()] = true
	}
}

func TestGenerateCandidateCountBounded(t *testing.T) {
	// The whole point of MST + n-wise: candidate count far below 2^(n-1).
	gen := NewGenerator()
	l, err := layout.Cell("AOI22_X1") // 9 patterns -> 256 exhaustive
	if err != nil {
		t.Fatal(err)
	}
	cands, err := gen.Generate(l)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) == 0 || len(cands) >= 256 {
		t.Fatalf("candidate count = %d, want in (0, 256)", len(cands))
	}
}

func TestGenerateCoversComponentFlipCombos(t *testing.T) {
	// For a layout whose SP graph has >= 2 components, candidates must
	// include both relative orientations of any two components.
	l := layout.Layout{
		Name:   "twocomp",
		Window: geom.RectWH(0, 0, 512, 512),
		Patterns: []geom.Rect{
			geom.RectWH(66, 66, 70, 70),
			geom.RectWH(196, 66, 70, 70), // SP with 0 (component A)
			geom.RectWH(66, 326, 70, 70),
			geom.RectWH(196, 326, 70, 70), // SP with 2 (component B)
		},
	}
	gen := NewGenerator()
	cands, err := gen.Generate(l)
	if err != nil {
		t.Fatal(err)
	}
	rel := map[uint8]bool{}
	for _, d := range cands {
		rel[d.Assign[0]^d.Assign[2]] = true
	}
	if !rel[0] || !rel[1] {
		t.Fatalf("component flip combinations missing: %v", rel)
	}
}

func TestGenerateEmptyLayout(t *testing.T) {
	gen := NewGenerator()
	if _, err := gen.Generate(layout.Layout{Name: "empty"}); err == nil {
		t.Fatal("expected error for empty layout")
	}
}

func TestGenerateChargesClock(t *testing.T) {
	gen := NewGenerator()
	gen.Clock = simclock.New(simclock.DefaultModel())
	l, err := layout.Cell("NAND3_X2")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gen.Generate(l); err != nil {
		t.Fatal(err)
	}
	if gen.Clock.Count(simclock.CostGraphOp) == 0 {
		t.Fatal("generator charged no graph ops")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	gen := NewGenerator()
	l, err := layout.Cell("DFF_X1")
	if err != nil {
		t.Fatal(err)
	}
	a, err := gen.Generate(l)
	if err != nil {
		t.Fatal(err)
	}
	b, err := gen.Generate(l)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatal("not deterministic")
	}
	for i := range a {
		if a[i].Key() != b[i].Key() {
			t.Fatal("not deterministic")
		}
	}
}

func TestGeneratedSubsetOfEnumeration(t *testing.T) {
	// Every generated candidate must appear in the exhaustive enumeration.
	gen := NewGenerator()
	rng := rand.New(rand.NewSource(3))
	layouts, err := layout.GenerateSet(rng.Int63(), 5, layout.DefaultGenParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range layouts {
		if len(l.Patterns) > 8 {
			continue
		}
		allKeys := map[string]bool{}
		for _, d := range EnumerateAll(l) {
			allKeys[d.Key()] = true
		}
		cands, err := gen.Generate(l)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range cands {
			if !allKeys[d.Key()] {
				t.Fatalf("%s: generated key %s not a legal assignment", l.Name, d.Key())
			}
		}
	}
}

func TestStringForms(t *testing.T) {
	d := New(pairLayout(), []uint8{0, 1})
	if d.String() == "" || d.Key() != "01" {
		t.Fatalf("string forms: %q key %q", d.String(), d.Key())
	}
}
