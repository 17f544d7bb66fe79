package model

import (
	"math/rand"
	"testing"

	"ldmo/internal/geom"
	"ldmo/internal/grid"
)

func batchImgs(n, seed int64) []*grid.Grid {
	rng := rand.New(rand.NewSource(seed))
	imgs := make([]*grid.Grid, n)
	for i := range imgs {
		imgs[i] = grid.New(32, 32, 4, geom.Point{})
		for j := range imgs[i].Data {
			imgs[i].Data[j] = rng.Float64()
		}
	}
	return imgs
}

// TestPredictBatchCompositionInvariant is the contract the lane sharding
// stands on: scoring the concatenation of two batches returns, bitwise, the
// concatenation of scoring them separately. Batch composition is purely a
// scheduling artifact.
func TestPredictBatchCompositionInvariant(t *testing.T) {
	p, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	a := batchImgs(3, 7)
	b := batchImgs(5, 8)
	sepA := p.PredictBatch(a)
	sepB := p.PredictBatch(b)
	joint := p.PredictBatch(append(append([]*grid.Grid{}, a...), b...))
	for i, want := range append(sepA, sepB...) {
		if joint[i] != want {
			t.Fatalf("joint[%d] = %v, separate = %v: batch composition leaked into scores", i, joint[i], want)
		}
	}
}

// TestPredictBatchIntoMatchesPredictBatch: the into-variant is the same
// computation into caller memory.
func TestPredictBatchIntoMatchesPredictBatch(t *testing.T) {
	p, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	imgs := batchImgs(4, 9)
	want := p.PredictBatch(imgs)
	got := make([]float64, len(imgs))
	p.PredictBatchInto(imgs, got)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("into[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched out length must panic")
		}
	}()
	p.PredictBatchInto(imgs, make([]float64, 1))
}

// TestPredictBatchIntoSteadyStateAllocs is the CI alloc gate for the
// path every PredictBatch call takes: once warm at a batch size, scoring
// input-size images into caller memory allocates nothing.
func TestPredictBatchIntoSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool randomly drops puts under the race detector")
	}
	p, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	p.SetWorkers(1)
	imgs := batchImgs(4, 10) // 32x32 == testConfig().InputSize: no resampling
	out := make([]float64, len(imgs))
	p.PredictBatchInto(imgs, out) // warm lane tensor + folded replica
	avg := testing.AllocsPerRun(10, func() {
		p.PredictBatchInto(imgs, out)
	})
	if avg != 0 {
		t.Fatalf("steady-state PredictBatchInto allocates %.1f objects, want 0", avg)
	}
}
