package model

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// TestPredictorScoresGolden pins the predictor's untrained scores bit for
// bit, on the folded lanes the flow scores with. Every GEMM accumulates each
// output element as the same ascending-k chain of separate multiplies and
// adds, so kernel, packing and lane-sharing changes must leave these bits
// alone; the pure-Go engine (GOARCH=386) produces the same values.
func TestPredictorScoresGolden(t *testing.T) {
	cases := []struct {
		name  string
		cfg   Config
		lanes int
		imgs  int
		size  int
		want  []uint64
		long  bool
	}{
		{"tiny", TinyConfig(), 1, 3, 64,
			[]uint64{0x4016079fad331b4b, 0x40164958ad7a713d, 0x401721c140af5c5f}, false},
		{"resnet18", ResNet18Config(), 2, 2, 224,
			[]uint64{0x3ff251fd4c9af46c, 0xbf7c800f2c9c9900}, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if c.long && testing.Short() {
				t.Skip("ResNet-18 at 224x224 is slow under -short")
			}
			p, err := New(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			p.SetWorkers(c.lanes)
			got := p.PredictBatch(randImages(rand.New(rand.NewSource(5)), c.imgs, c.size))
			for i, w := range c.want {
				if b := math.Float64bits(got[i]); b != w {
					t.Errorf("score %d = %#016x (%g), want %#016x (%g)", i, b, got[i], w, math.Float64frombits(w))
				}
			}
		})
	}
}

// TestPredictorLanesShareFrozenWeights pins the inference memory layout:
// model.New allocates no gradient buffers, every lane reads the one frozen
// weight set, frozen params carry no gradient, lanes and PredictBatchInto
// stay allocation-free once warm, and the first training step grows the
// source network's gradients.
func TestPredictorLanesShareFrozenWeights(t *testing.T) {
	p, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, prm := range p.Net.Params() {
		if prm.Grad != nil {
			t.Fatalf("New allocated a gradient buffer for %s", prm.Name)
		}
	}
	p.SetWorkers(3)
	imgs := batchImgs(6, 11)
	out := make([]float64, len(imgs))
	p.PredictBatchInto(imgs, out)
	lanes := p.frozenNets(3)
	shared := lanes[0].Params()
	convs := 0
	for l, lane := range lanes {
		params := lane.Params()
		if len(params) != len(shared) {
			t.Fatalf("lane %d has %d params, lane 0 has %d", l, len(params), len(shared))
		}
		for i, prm := range params {
			if prm.Grad != nil || !prm.NoGrad {
				t.Fatalf("lane %d: frozen %s is trainable or carries a gradient", l, prm.Name)
			}
			if &prm.Data[0] != &shared[i].Data[0] {
				t.Fatalf("lane %d: %s has weight storage of its own", l, prm.Name)
			}
			if prm.Name == "conv.weight" {
				convs++
			}
		}
	}
	if convs == 0 {
		t.Fatal("no conv weights found in the lanes")
	}
	if !raceEnabled {
		// The sharded call spawns its pool's goroutines; the lanes' forward
		// passes and the serial path allocate nothing.
		x := p.laneTensor(1, imgs[:2])
		if avg := testing.AllocsPerRun(10, func() { lanes[1].Forward(x, false) }); avg != 0 {
			t.Fatalf("warm lane forward allocates %.1f objects, want 0", avg)
		}
		p.SetWorkers(1)
		p.PredictBatchInto(imgs, out)
		if avg := testing.AllocsPerRun(10, func() { p.PredictBatchInto(imgs, out) }); avg != 0 {
			t.Fatalf("warm PredictBatchInto allocates %.1f objects, want 0", avg)
		}
	}

	ds := &Dataset{}
	for i, img := range imgs {
		ds.Add(img, float64(i))
	}
	tc := DefaultTrainConfig()
	tc.Epochs = 1
	tc.BatchSize = 3
	if _, err := p.Train(ds, tc); err != nil {
		t.Fatal(err)
	}
	for _, prm := range p.Net.Params() {
		if want := len(prm.Data); !prm.NoGrad && len(prm.Grad) != want {
			t.Fatalf("after training %s has %d gradient entries, want %d", prm.Name, len(prm.Grad), want)
		}
	}
}

// TestResNet18LaneUnder15MB is the memory gate of the frozen lanes'
// activation arena: a new lane of the 224² ResNet-18 predictor, sharing the
// frozen weights, may add at most 15 MB to the live heap with its first
// one-image forward. A lane with a buffer per layer held ~58 MiB.
func TestResNet18LaneUnder15MB(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool randomly drops puts under the race detector")
	}
	if testing.Short() {
		t.Skip("ResNet-18 at 224x224 is slow under -short")
	}
	p, err := New(ResNet18Config())
	if err != nil {
		t.Fatal(err)
	}
	p.SetWorkers(1)
	imgs := randImages(rand.New(rand.NewSource(5)), 1, 224)
	p.PredictBatch(imgs) // freeze, and warm the GEMM scratch pool
	x := p.laneTensor(0, imgs)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	lane := p.frozenNets(1)[0].Lane()
	lane.Forward(x, false)
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(p)
	runtime.KeepAlive(lane)
	grew := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("a 224² ResNet-18 lane holds %.1f MiB after its first forward", float64(grew)/(1<<20))
	if grew > 15e6 {
		t.Fatalf("a 224² ResNet-18 lane holds %d bytes after its first forward, want at most 15 MB", grew)
	}
}

// BenchmarkPredictR18 times the paper-scale predictor in the flow's shape:
// two 224x224 candidates scored on two lanes.
func BenchmarkPredictR18(b *testing.B) {
	p, err := New(ResNet18Config())
	if err != nil {
		b.Fatal(err)
	}
	p.SetWorkers(2)
	imgs := randImages(rand.New(rand.NewSource(5)), 2, 224)
	out := make([]float64, len(imgs))
	p.PredictBatchInto(imgs, out)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.PredictBatchInto(imgs, out)
	}
}
