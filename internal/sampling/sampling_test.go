package sampling

import (
	"math"
	"strings"
	"testing"

	"ldmo/internal/ilt"
	"ldmo/internal/layout"
)

// testConfig shrinks everything for test speed: labeling happens on the
// coarse raster with few ILT iterations.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Clusters = 3
	cfg.PerCluster = 2
	cfg.MatchCount = 20
	cfg.ILT.MaxIters = 4
	return cfg
}

func pool(t testing.TB, n int) []layout.Layout {
	t.Helper()
	set, err := layout.GenerateSet(11, n, layout.DefaultGenParams())
	if err != nil {
		t.Fatal(err)
	}
	return set
}

func TestSelectLayoutsCountsAndMembership(t *testing.T) {
	p := pool(t, 12)
	cfg := testConfig()
	sel, err := SelectLayouts(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) == 0 || len(sel) > cfg.Clusters*cfg.PerCluster {
		t.Fatalf("selected %d layouts, want in (0, %d]", len(sel), cfg.Clusters*cfg.PerCluster)
	}
	// Every selected layout must come from the pool.
	names := map[string]bool{}
	for _, l := range p {
		names[l.Name] = true
	}
	seen := map[string]bool{}
	for _, l := range sel {
		if !names[l.Name] {
			t.Fatalf("selected layout %s not from pool", l.Name)
		}
		if seen[l.Name] {
			t.Fatalf("layout %s selected twice", l.Name)
		}
		seen[l.Name] = true
	}
}

func TestSelectLayoutsErrors(t *testing.T) {
	cfg := testConfig()
	if _, err := SelectLayouts(nil, cfg); err == nil {
		t.Fatal("empty pool must error")
	}
	cfg.Clusters = 0
	if _, err := SelectLayouts(pool(t, 3), cfg); err == nil {
		t.Fatal("zero clusters must error")
	}
}

func TestSelectLayoutsDeterministic(t *testing.T) {
	p := pool(t, 8)
	cfg := testConfig()
	a, err := SelectLayouts(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SelectLayouts(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatal("not deterministic")
	}
	for i := range a {
		if a[i].Name != b[i].Name {
			t.Fatal("not deterministic")
		}
	}
}

func TestSampleDecompositionsUsesInfiniteNMax(t *testing.T) {
	// A layout whose patterns all sit beyond nmax must still produce more
	// than the single trivial decomposition, because training sampling
	// treats every non-SP pattern as a free 3-wise factor.
	l, err := layout.Cell("NAND2_X1")
	if err != nil {
		t.Fatal(err)
	}
	cands, err := SampleDecompositions(l, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) < 2 {
		t.Fatalf("training sampling produced %d candidates", len(cands))
	}
	for _, d := range cands {
		if !d.Valid(80) {
			t.Fatalf("training candidate %s violates SP separation", d.Key())
		}
	}
}

func TestBuildDatasetLabelsAndGroups(t *testing.T) {
	p := pool(t, 3)
	cfg := testConfig()
	var log strings.Builder
	ds, groups, err := BuildDataset(p, cfg, &log)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() == 0 {
		t.Fatal("empty dataset")
	}
	if len(groups) != len(p) {
		t.Fatalf("groups = %d, want %d", len(groups), len(p))
	}
	total := 0
	for _, g := range groups {
		total += len(g)
		for _, idx := range g {
			if idx < 0 || idx >= ds.Len() {
				t.Fatalf("group index %d out of range", idx)
			}
		}
	}
	if total != ds.Len() {
		t.Fatalf("groups cover %d of %d samples", total, ds.Len())
	}
	for i, s := range ds.Samples {
		if s.Image == nil || s.Image.W != cfg.ImageSize {
			t.Fatalf("sample %d image misshapen", i)
		}
		if math.IsNaN(s.Score) {
			t.Fatalf("sample %d score = %g", i, s.Score)
		}
	}
	// With per-layout centering, each group's labels sum to ~0.
	for gi, g := range groups {
		sum := 0.0
		for _, idx := range g {
			sum += ds.Samples[idx].Score
		}
		if math.Abs(sum) > 1e-6*float64(len(g)+1) {
			t.Fatalf("group %d not centered: sum %g", gi, sum)
		}
	}
	if !strings.Contains(log.String(), "labeled") {
		t.Fatal("no progress log emitted")
	}
}

func TestBuildDatasetScoresVary(t *testing.T) {
	// Different decompositions of a layout with real choice must produce
	// at least two distinct labels — otherwise there is nothing to learn.
	l, err := layout.Cell("AOI211_X1")
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.ILT.MaxIters = 8
	ds, _, err := BuildDataset([]layout.Layout{l}, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	distinct := map[float64]bool{}
	for _, s := range ds.Samples {
		distinct[s.Score] = true
	}
	if len(distinct) < 2 {
		t.Fatalf("all %d labels identical", ds.Len())
	}
}

func TestBuildRandomDataset(t *testing.T) {
	p := pool(t, 4)
	cfg := testConfig()
	ds, groups, err := BuildRandomDataset(p, 6, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() < 6 {
		t.Fatalf("random dataset has %d samples, want >= 6", ds.Len())
	}
	if len(groups) == 0 {
		t.Fatal("no groups")
	}
	if _, _, err := BuildRandomDataset(nil, 5, cfg, nil); err == nil {
		t.Fatal("empty pool must error")
	}
	if _, _, err := BuildRandomDataset(p, 0, cfg, nil); err == nil {
		t.Fatal("zero target must error")
	}
}

func TestPaperConfigConstants(t *testing.T) {
	pc := PaperConfig()
	if pc.Clusters != 50 || pc.PerCluster != 5 {
		t.Fatalf("paper sampling constants: %d clusters x %d", pc.Clusters, pc.PerCluster)
	}
	if pc.Dth != 0.7 || pc.MatchCount != 60 {
		t.Fatalf("paper SIFT constants: Dth %g, c %d", pc.Dth, pc.MatchCount)
	}
}

func TestSampleDecompositionsDeduped(t *testing.T) {
	l, err := layout.Cell("AOI22_X1")
	if err != nil {
		t.Fatal(err)
	}
	cands, err := SampleDecompositions(l, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, d := range cands {
		if seen[d.Key()] {
			t.Fatalf("duplicate training candidate %s", d.Key())
		}
		seen[d.Key()] = true
	}
}

func TestLabelIsScore(t *testing.T) {
	l, err := layout.Cell("INV_X1")
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	opt, err := ilt.NewOptimizer(l, cfg.ILT)
	if err != nil {
		t.Fatal(err)
	}
	cands, err := SampleDecompositions(l, cfg)
	if err != nil {
		t.Fatal(err)
	}
	score := Label(opt, cands[0], cfg.Weights)
	if math.IsNaN(score) || score < 0 {
		t.Fatalf("label = %g", score)
	}
}
