package model

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"ldmo/internal/geom"
	"ldmo/internal/grid"
	"ldmo/internal/simclock"
)

// testConfig is a minimal architecture for fast tests.
func testConfig() Config {
	return Config{
		InputSize:     32,
		StemChannels:  4,
		StageBlocks:   [4]int{1, 1, 1, 1},
		StageChannels: [4]int{4, 6, 8, 10},
		HiddenDim:     16,
		Seed:          1,
	}
}

func TestScoreWeights(t *testing.T) {
	w := DefaultScoreWeights()
	if w.Alpha != 1 || w.Beta != 3500 || w.Gamma != 8000 {
		t.Fatalf("weights = %+v", w)
	}
	if got := w.Score(10, 2, 1); got != 10+7000+8000 {
		t.Fatalf("score = %g", got)
	}
}

func TestScoreNorm(t *testing.T) {
	n := FitScoreNorm([]float64{1, 2, 3, 4, 5})
	if n.Mean != 3 {
		t.Fatalf("mean = %g", n.Mean)
	}
	if math.Abs(n.Std-math.Sqrt(2)) > 1e-12 {
		t.Fatalf("std = %g", n.Std)
	}
	if z := n.Normalize(3); z != 0 {
		t.Fatalf("normalize(mean) = %g", z)
	}
	if got := n.Denormalize(n.Normalize(4.2)); math.Abs(got-4.2) > 1e-12 {
		t.Fatalf("roundtrip = %g", got)
	}
	// Degenerate cases stay finite.
	if d := FitScoreNorm(nil); d.Std != 1 {
		t.Fatalf("empty norm = %+v", d)
	}
	if d := FitScoreNorm([]float64{7, 7, 7}); d.Std != 1 || d.Mean != 7 {
		t.Fatalf("constant norm = %+v", d)
	}
}

func TestConfigValidate(t *testing.T) {
	if err := ResNet18Config().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := TinyConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := testConfig()
	bad.InputSize = 4
	if err := bad.Validate(); err == nil {
		t.Fatal("tiny input must fail")
	}
	bad = testConfig()
	bad.InputSize = maxInputSize + 1
	if err := bad.Validate(); err == nil {
		t.Fatal("input above maxInputSize must fail")
	}
	bad = testConfig()
	bad.StageBlocks[2] = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("empty stage must fail")
	}
	bad = testConfig()
	bad.HiddenDim = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero hidden must fail")
	}
}

func TestPredictShapeAndDeterminism(t *testing.T) {
	p, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	img := grid.New(32, 32, 4, geom.Point{})
	img.FillRect(geom.RectWH(20, 20, 60, 60), 0.5)
	a := p.Predict(img)
	b := p.Predict(img)
	if a != b {
		t.Fatal("prediction not deterministic")
	}
	if math.IsNaN(a) || math.IsInf(a, 0) {
		t.Fatalf("prediction = %g", a)
	}
}

func TestPredictBatchMatchesSingles(t *testing.T) {
	p, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	imgs := make([]*grid.Grid, 3)
	for i := range imgs {
		imgs[i] = grid.New(32, 32, 4, geom.Point{})
		for j := range imgs[i].Data {
			imgs[i].Data[j] = rng.Float64()
		}
	}
	batch := p.PredictBatch(imgs)
	for i, img := range imgs {
		if single := p.Predict(img); math.Abs(single-batch[i]) > 1e-9 {
			t.Fatalf("batch[%d] = %g, single = %g", i, batch[i], single)
		}
	}
	if p.PredictBatch(nil) != nil {
		t.Fatal("empty batch should be nil")
	}
}

func TestPredictResamplesInput(t *testing.T) {
	p, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	img := grid.New(136, 136, 4, geom.Point{}) // native tile raster
	img.FillRect(geom.RectWH(100, 100, 65, 65), 1)
	v := p.Predict(img)
	if math.IsNaN(v) {
		t.Fatal("resampled prediction NaN")
	}
}

func TestPredictorClockCharges(t *testing.T) {
	p, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	clk := simclock.New(simclock.DefaultModel())
	p.SetClock(clk)
	p.Predict(grid.New(32, 32, 4, geom.Point{}))
	if clk.Count(simclock.CostCNNInference) != 1 {
		t.Fatal("inference not charged")
	}
}

// syntheticDataset builds images whose score is a simple function of mask-2
// coverage, a signal a small CNN can learn quickly.
func syntheticDataset(n int, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	ds := &Dataset{}
	for i := 0; i < n; i++ {
		img := grid.New(32, 32, 4, geom.Point{})
		cover := 0.0
		for b := 0; b < 4; b++ {
			x, y := rng.Intn(24), rng.Intn(24)
			level := 0.5
			if rng.Intn(2) == 1 {
				level = 1.0
				cover++
			}
			img.FillRect(geom.RectWH(x*4, y*4, 24, 24), level)
		}
		ds.Add(img, 1000+cover*800)
	}
	return ds
}

func TestTrainReducesLoss(t *testing.T) {
	p, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	ds := syntheticDataset(48, 3)
	tc := DefaultTrainConfig()
	tc.Epochs = 8
	tc.BatchSize = 8
	hist, err := p.Train(ds, tc)
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 8 {
		t.Fatalf("history length %d", len(hist))
	}
	if hist[len(hist)-1] >= hist[0] {
		t.Fatalf("loss did not decrease: %g -> %g", hist[0], hist[len(hist)-1])
	}
	if p.Norm.Std == 1 && p.Norm.Mean == 0 {
		t.Fatal("norm not fitted during training")
	}
	if mae := p.Evaluate(ds); mae > hist[0] {
		t.Fatalf("post-train eval MAE %g worse than first epoch %g", mae, hist[0])
	}
}

func TestTrainErrors(t *testing.T) {
	p, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Train(&Dataset{}, DefaultTrainConfig()); err == nil {
		t.Fatal("empty dataset must error")
	}
	ds := syntheticDataset(4, 1)
	tc := DefaultTrainConfig()
	tc.Epochs = 0
	if _, err := p.Train(ds, tc); err == nil {
		t.Fatal("zero epochs must error")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	p, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	ds := syntheticDataset(16, 5)
	tc := DefaultTrainConfig()
	tc.Epochs = 2
	tc.BatchSize = 8
	if _, err := p.Train(ds, tc); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.Write(&buf); err != nil {
		t.Fatal(err)
	}
	q, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if q.Norm != p.Norm {
		t.Fatalf("norm mismatch: %+v vs %+v", q.Norm, p.Norm)
	}
	img := ds.Samples[0].Image
	if a, b := p.Predict(img), q.Predict(img); a != b {
		t.Fatalf("loaded model predicts %g, original %g", b, a)
	}
}

func TestSaveLoadFile(t *testing.T) {
	p, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/model.gob"
	if err := p.Save(path); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path + ".missing"); err == nil {
		t.Fatal("missing file must error")
	}
}

func TestRankAccuracy(t *testing.T) {
	p, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	ds := syntheticDataset(24, 7)
	tc := DefaultTrainConfig()
	tc.Epochs = 10
	tc.BatchSize = 8
	if _, err := p.Train(ds, tc); err != nil {
		t.Fatal(err)
	}
	groups := [][]int{{0, 1, 2, 3}, {4, 5, 6, 7}, {8, 9, 10, 11}}
	acc := p.RankAccuracy(ds, groups, 0)
	if acc < 0 || acc > 1 {
		t.Fatalf("accuracy = %g", acc)
	}
	// With infinite slack every group is a hit.
	if got := p.RankAccuracy(ds, groups, math.Inf(1)); got != 1 {
		t.Fatalf("slack accuracy = %g", got)
	}
	if got := p.RankAccuracy(ds, nil, 0); got != 0 {
		t.Fatalf("empty groups accuracy = %g", got)
	}
}

func TestResNet18ForwardShape(t *testing.T) {
	// The paper-faithful architecture must build and produce a scalar.
	// One forward pass at 224x224 is slow but feasible.
	if testing.Short() {
		t.Skip("resnet18 forward is slow")
	}
	p, err := New(ResNet18Config())
	if err != nil {
		t.Fatal(err)
	}
	img := grid.New(224, 224, 2, geom.Point{})
	img.FillRect(geom.RectWH(100, 100, 200, 200), 0.5)
	v := p.Predict(img)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		t.Fatalf("resnet18 prediction = %g", v)
	}
}
