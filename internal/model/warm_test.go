package model

import (
	"math"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"

	"ldmo/internal/geom"
	"ldmo/internal/grid"
)

// testWarmConfig is a small architecture that trains in test-milliseconds.
func testWarmConfig() WarmConfig {
	return WarmConfig{InputSize: 16, Channels: 4, Blocks: 2, Seed: 3}
}

// randomGrid fills a w x h grid with deterministic pseudo-random values in
// [0, 1].
func randomGrid(rng *rand.Rand, w, h int) *grid.Grid {
	g := grid.New(w, h, 8, geom.Point{})
	for i := range g.Data {
		g.Data[i] = rng.Float64()
	}
	return g
}

// warmTestDataset synthesizes n harvested pairs at the config's field size
// with a learnable structure: the "optimized" field is the cold mask pushed
// toward binary (a crude caricature of what ILT does).
func warmTestDataset(cfg WarmConfig, n int) *WarmDataset {
	rng := rand.New(rand.NewSource(11))
	s := cfg.InputSize
	ds := &WarmDataset{Size: s}
	sharpen := func(g *grid.Grid) *grid.Grid {
		o := grid.New(g.W, g.H, g.Res, g.Origin)
		for i, v := range g.Data {
			o.Data[i] = 1 / (1 + math.Exp(-8*(v-0.5)))
		}
		return o
	}
	for i := 0; i < n; i++ {
		c1 := randomGrid(rng, s, s)
		c2 := randomGrid(rng, s, s)
		ds.Pairs = append(ds.Pairs, WarmPair{Cold1: c1, Cold2: c2, Opt1: sharpen(c1), Opt2: sharpen(c2)})
	}
	return ds
}

func TestWarmStarterUntrainedStaysNearCold(t *testing.T) {
	ws, err := NewWarmStarter(testWarmConfig())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	c1, c2 := randomGrid(rng, 32, 32), randomGrid(rng, 32, 32)
	w1 := make([]float64, 32*32)
	w2 := make([]float64, 32*32)
	if !ws.WarmMasksInto(c1, c2, w1, w2) {
		t.Fatal("WarmMasksInto returned false")
	}
	var dev float64
	for i := range w1 {
		if w1[i] < 0 || w1[i] > 1 || w2[i] < 0 || w2[i] > 1 {
			t.Fatalf("warm field out of [0,1] at %d: %g %g", i, w1[i], w2[i])
		}
		dev += math.Abs(w1[i]-c1.Data[i]) + math.Abs(w2[i]-c2.Data[i])
	}
	dev /= float64(2 * len(w1))
	// The residual head is initialized near zero, so an untrained surrogate
	// must roughly reproduce the cold start, not scramble it.
	if dev > 0.25 {
		t.Fatalf("untrained warm field deviates %.3f from cold on average", dev)
	}
}

func TestWarmStarterTrainReducesLoss(t *testing.T) {
	cfg := testWarmConfig()
	ws, err := NewWarmStarter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ds := warmTestDataset(cfg, 12)
	tc := DefaultWarmTrainConfig()
	tc.Epochs = 8
	hist, err := ws.Train(ds, tc)
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != tc.Epochs {
		t.Fatalf("history length %d, want %d", len(hist), tc.Epochs)
	}
	if hist[len(hist)-1] >= hist[0] {
		t.Fatalf("training did not reduce loss: %.5f -> %.5f", hist[0], hist[len(hist)-1])
	}
}

func TestWarmStarterRoundTrip(t *testing.T) {
	cfg := testWarmConfig()
	ws, err := NewWarmStarter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ws.Train(warmTestDataset(cfg, 6), WarmTrainConfig{Epochs: 2, BatchSize: 4, LR: 1e-3, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "warm.gob")
	if err := ws.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadWarmStarter(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Digest() != ws.Digest() {
		t.Fatal("digest changed across save/load")
	}
	rng := rand.New(rand.NewSource(9))
	c1, c2 := randomGrid(rng, cfg.InputSize, cfg.InputSize), randomGrid(rng, cfg.InputSize, cfg.InputSize)
	n := cfg.InputSize * cfg.InputSize
	a1, a2 := make([]float64, n), make([]float64, n)
	b1, b2 := make([]float64, n), make([]float64, n)
	if !ws.WarmMasksInto(c1, c2, a1, a2) || !got.WarmMasksInto(c1, c2, b1, b2) {
		t.Fatal("WarmMasksInto returned false")
	}
	for i := range a1 {
		if a1[i] != b1[i] || a2[i] != b2[i] {
			t.Fatalf("loaded warm starter predicts differently at %d", i)
		}
	}
}

func TestWarmStarterDigestChangesOnTraining(t *testing.T) {
	cfg := testWarmConfig()
	ws, err := NewWarmStarter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	before := ws.Digest()
	if _, err := ws.Train(warmTestDataset(cfg, 6), WarmTrainConfig{Epochs: 1, BatchSize: 4, LR: 1e-3, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if ws.Digest() == before {
		t.Fatal("digest unchanged by training")
	}
}

func TestWarmDatasetRoundTripAndAugment(t *testing.T) {
	cfg := testWarmConfig()
	ds := warmTestDataset(cfg, 3)
	path := filepath.Join(t.TempDir(), "pairs.gob")
	if err := SaveWarmDataset(ds, path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadWarmDataset(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Size != ds.Size || got.Len() != ds.Len() {
		t.Fatalf("round trip: size %d len %d", got.Size, got.Len())
	}
	for i := range got.Pairs {
		for j := range got.Pairs[i].Cold1.Data {
			if got.Pairs[i].Cold1.Data[j] != ds.Pairs[i].Cold1.Data[j] ||
				got.Pairs[i].Opt2.Data[j] != ds.Pairs[i].Opt2.Data[j] {
				t.Fatalf("pair %d differs at %d", i, j)
			}
		}
	}
	aug := ds.Augmented()
	if aug.Len() != 8*ds.Len() {
		t.Fatalf("augmented length %d, want %d", aug.Len(), 8*ds.Len())
	}
}

func TestWarmMasksConcurrentMatchesSerial(t *testing.T) {
	cfg := testWarmConfig()
	ws, err := NewWarmStarter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	const lanes = 4
	type in struct{ c1, c2 *grid.Grid }
	ins := make([]in, lanes)
	want := make([][]float64, lanes)
	n := 24 * 24
	for i := range ins {
		ins[i] = in{randomGrid(rng, 24, 24), randomGrid(rng, 24, 24)}
		w1, w2 := make([]float64, n), make([]float64, n)
		if !ws.WarmMasksInto(ins[i].c1, ins[i].c2, w1, w2) {
			t.Fatal("serial WarmMasksInto returned false")
		}
		want[i] = append(w1, w2...)
	}
	var wg sync.WaitGroup
	errs := make([]string, lanes)
	for i := 0; i < lanes; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w1, w2 := make([]float64, n), make([]float64, n)
			if !ws.WarmMasksInto(ins[i].c1, ins[i].c2, w1, w2) {
				errs[i] = "returned false"
				return
			}
			got := append(w1, w2...)
			for j := range got {
				if got[j] != want[i][j] {
					errs[i] = "diverged from serial prediction"
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for i, e := range errs {
		if e != "" {
			t.Fatalf("lane %d: %s", i, e)
		}
	}
}

func TestWarmMasksIntoSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool randomly drops puts under the race detector")
	}
	cfg := testWarmConfig()
	ws, err := NewWarmStarter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(23))
	c1, c2 := randomGrid(rng, 32, 32), randomGrid(rng, 32, 32)
	n := 32 * 32
	w1, w2 := make([]float64, n), make([]float64, n)
	// Warm the caches: first call builds the folded replica and the layer
	// buffers.
	for i := 0; i < 2; i++ {
		if !ws.WarmMasksInto(c1, c2, w1, w2) {
			t.Fatal("WarmMasksInto returned false")
		}
	}
	allocs := testing.AllocsPerRun(10, func() {
		ws.WarmMasksInto(c1, c2, w1, w2)
	})
	if allocs != 0 {
		t.Fatalf("WarmMasksInto allocates %v objects per call at steady state, want 0", allocs)
	}
}
