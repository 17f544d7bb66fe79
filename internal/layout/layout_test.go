package layout

import (
	"math/rand"
	"testing"

	"ldmo/internal/geom"
)

func TestClassifyBands(t *testing.T) {
	// Three contacts in a row: A-B gap 60 (SP pair), C at gap 90 from B
	// (VP), and a far-away D (NP).
	pats := []geom.Rect{
		geom.RectWH(0, 0, 70, 70),
		geom.RectWH(130, 0, 70, 70),   // 60 from A
		geom.RectWH(290, 0, 70, 70),   // 90 from B
		geom.RectWH(290, 400, 70, 70), // far from all
	}
	got := Classify(pats, DefaultClassifyParams())
	want := []Class{ClassSP, ClassSP, ClassVP, ClassNP}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("pattern %d: class %v, want %v", i, got[i], want[i])
		}
	}
}

func TestClassifySingle(t *testing.T) {
	got := Classify([]geom.Rect{geom.RectWH(0, 0, 70, 70)}, DefaultClassifyParams())
	if got[0] != ClassNP {
		t.Fatalf("lone pattern = %v, want NP", got[0])
	}
}

func TestClassifyBoundaryInclusive(t *testing.T) {
	// Exactly nmin apart -> SP; exactly nmax -> VP.
	p := DefaultClassifyParams()
	at := func(gap int) Class {
		pats := []geom.Rect{geom.RectWH(0, 0, 70, 70), geom.RectWH(70+gap, 0, 70, 70)}
		return Classify(pats, p)[0]
	}
	if got := at(80); got != ClassSP {
		t.Errorf("gap 80 = %v, want SP", got)
	}
	if got := at(81); got != ClassVP {
		t.Errorf("gap 81 = %v, want VP", got)
	}
	if got := at(98); got != ClassVP {
		t.Errorf("gap 98 = %v, want VP", got)
	}
	if got := at(99); got != ClassNP {
		t.Errorf("gap 99 = %v, want NP", got)
	}
}

func TestClassString(t *testing.T) {
	if ClassSP.String() != "SP" || ClassVP.String() != "VP" || ClassNP.String() != "NP" {
		t.Fatal("class names wrong")
	}
	if Class(9).String() == "" {
		t.Fatal("unknown class string empty")
	}
}

func TestConflictGraph(t *testing.T) {
	pats := []geom.Rect{
		geom.RectWH(0, 0, 70, 70),
		geom.RectWH(130, 0, 70, 70), // SP with 0
		geom.RectWH(400, 0, 70, 70), // isolated
	}
	adj := ConflictGraph(pats, 80)
	if len(adj[0]) != 1 || adj[0][0] != 1 || len(adj[1]) != 1 || len(adj[2]) != 0 {
		t.Fatalf("adjacency = %v", adj)
	}
}

func TestIsBipartite(t *testing.T) {
	// Even cycle: bipartite.
	even := [][]int{{1, 3}, {0, 2}, {1, 3}, {2, 0}}
	ok, coloring := IsBipartite(even)
	if !ok {
		t.Fatal("even cycle reported non-bipartite")
	}
	for u, nbrs := range even {
		for _, v := range nbrs {
			if coloring[u] == coloring[v] {
				t.Fatal("witness coloring invalid")
			}
		}
	}
	// Odd cycle: not bipartite.
	odd := [][]int{{1, 2}, {0, 2}, {1, 0}}
	if ok, _ := IsBipartite(odd); ok {
		t.Fatal("triangle reported bipartite")
	}
	// Empty graph.
	if ok, _ := IsBipartite(nil); !ok {
		t.Fatal("empty graph must be bipartite")
	}
}

func TestRasterize(t *testing.T) {
	l := Layout{
		Name:     "t",
		Window:   geom.RectWH(0, 0, 512, 512),
		Patterns: []geom.Rect{geom.RectWH(100, 100, 70, 70)},
	}
	g := l.Rasterize(4)
	if g.W != 128 || g.H != 128 {
		t.Fatalf("raster %dx%d", g.W, g.H)
	}
	// 70nm at 4nm/px covers 17-18 px per axis.
	if s := g.Sum(); s < 16*16 || s > 18*18 {
		t.Fatalf("raster sum = %g", s)
	}
}

func TestCloneIndependent(t *testing.T) {
	l, err := Cell("BUF_X1")
	if err != nil {
		t.Fatal(err)
	}
	c := l.Clone()
	c.Patterns[0] = geom.RectWH(0, 0, 1, 1)
	if l.Patterns[0] == c.Patterns[0] {
		t.Fatal("Clone shares pattern storage")
	}
}

func TestCheckDRC(t *testing.T) {
	win := geom.RectWH(0, 0, 512, 512)
	rules := DefaultDRCParams()
	clean := Layout{Window: win, Patterns: []geom.Rect{
		geom.RectWH(100, 100, 70, 70), geom.RectWH(300, 100, 70, 70)}}
	if v := clean.CheckDRC(rules); len(v) != 0 {
		t.Fatalf("clean layout flagged: %v", v)
	}
	thin := Layout{Window: win, Patterns: []geom.Rect{geom.RectWH(100, 100, 30, 70)}}
	if v := thin.CheckDRC(rules); len(v) != 1 || v[0].Rule != "min-width" {
		t.Fatalf("thin: %v", v)
	}
	tight := Layout{Window: win, Patterns: []geom.Rect{
		geom.RectWH(100, 100, 70, 70), geom.RectWH(180, 100, 70, 70)}}
	if v := tight.CheckDRC(rules); len(v) != 1 || v[0].Rule != "min-spacing" {
		t.Fatalf("tight: %v", v)
	}
	edge := Layout{Window: win, Patterns: []geom.Rect{geom.RectWH(10, 100, 70, 70)}}
	if v := edge.CheckDRC(rules); len(v) != 1 || v[0].Rule != "window-margin" {
		t.Fatalf("edge: %v", v)
	}
	if s := (DRCViolation{Rule: "min-spacing", A: 0, B: 1}).String(); s == "" {
		t.Fatal("violation string empty")
	}
	if s := (DRCViolation{Rule: "min-width", A: 0, B: -1}).String(); s == "" {
		t.Fatal("violation string empty")
	}
}

func TestCellLibraryComplete(t *testing.T) {
	cells := Cells()
	if len(cells) != 13 {
		t.Fatalf("library has %d cells, want 13 (Table I)", len(cells))
	}
	names := map[string]bool{}
	for _, c := range cells {
		names[c.Name] = true
	}
	for _, want := range []string{"BUF_X1", "NAND3_X2", "AOI211_X1"} {
		if !names[want] {
			t.Errorf("Fig. 7 cell %s missing from library", want)
		}
	}
}

func TestCellLibraryValid(t *testing.T) {
	rules := DefaultDRCParams()
	cp := DefaultClassifyParams()
	for _, c := range Cells() {
		if v := c.CheckDRC(rules); len(v) != 0 {
			t.Errorf("%s: DRC violations %v", c.Name, v)
		}
		if ok, _ := IsBipartite(ConflictGraph(c.Patterns, cp.NMin)); !ok {
			t.Errorf("%s: SP conflict graph not 2-colorable", c.Name)
		}
		if len(c.Patterns) < 3 {
			t.Errorf("%s: only %d patterns", c.Name, len(c.Patterns))
		}
	}
}

func TestCellLookup(t *testing.T) {
	l, err := Cell("NAND3_X2")
	if err != nil {
		t.Fatal(err)
	}
	if l.Name != "NAND3_X2" || len(l.Patterns) != 7 {
		t.Fatalf("NAND3_X2 = %s with %d patterns", l.Name, len(l.Patterns))
	}
	if _, err := Cell("NOPE"); err == nil {
		t.Fatal("unknown cell must error")
	}
}

func TestCellNamesOrder(t *testing.T) {
	names := CellNames()
	if len(names) != 13 || names[0] != "BUF_X1" {
		t.Fatalf("names = %v", names)
	}
}

func TestGenerateValidLayouts(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := DefaultGenParams()
	for i := 0; i < 50; i++ {
		l, err := Generate(rng, p)
		if err != nil {
			t.Fatal(err)
		}
		if v := l.CheckDRC(p.DRC); len(v) != 0 {
			t.Fatalf("generated layout %d violates DRC: %v", i, v)
		}
		if ok, _ := IsBipartite(ConflictGraph(l.Patterns, p.Classify.NMin)); !ok {
			t.Fatalf("generated layout %d not decomposable", i)
		}
		if n := len(l.Patterns); n < p.MinContacts || n > p.MaxContacts {
			t.Fatalf("generated layout %d has %d patterns", i, n)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := GenerateSet(42, 5, DefaultGenParams())
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateSet(42, 5, DefaultGenParams())
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if len(a[i].Patterns) != len(b[i].Patterns) {
			t.Fatal("not deterministic")
		}
		for j := range a[i].Patterns {
			if a[i].Patterns[j] != b[i].Patterns[j] {
				t.Fatal("not deterministic")
			}
		}
	}
}

func TestGenerateParamsValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := DefaultGenParams()
	p.MaxContacts = 10
	if _, err := Generate(rng, p); err == nil {
		t.Fatal("expected range error")
	}
	p = DefaultGenParams()
	p.MinContacts = 5
	p.MaxContacts = 4
	if _, err := Generate(rng, p); err == nil {
		t.Fatal("expected range error")
	}
}

func TestGenerateSetDistinct(t *testing.T) {
	set, err := GenerateSet(7, 20, DefaultGenParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != 20 {
		t.Fatalf("got %d layouts", len(set))
	}
	// At least two different pattern counts across the set.
	counts := map[int]bool{}
	for _, l := range set {
		counts[len(l.Patterns)] = true
	}
	if len(counts) < 2 {
		t.Fatal("generator produced uniform layouts")
	}
}
