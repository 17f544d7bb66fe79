package model

import (
	"math/rand"
	"sync"
	"testing"

	"ldmo/internal/geom"
	"ldmo/internal/grid"
)

func randImages(rng *rand.Rand, n, size int) []*grid.Grid {
	imgs := make([]*grid.Grid, n)
	for i := range imgs {
		g := grid.New(size, size, 4, geom.Point{})
		for j := range g.Data {
			g.Data[j] = rng.Float64()
		}
		imgs[i] = g
	}
	return imgs
}

// TestPredictBatchShardedBitIdentical checks that sharding a batch over
// worker lanes (each with its own network replica) produces exactly the
// single-batch scores, at several lane counts including lanes > batch.
func TestPredictBatchShardedBitIdentical(t *testing.T) {
	cfg := TinyConfig()
	cfg.InputSize = 16 // keep the forward pass cheap
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(77))
	imgs := randImages(rng, 9, cfg.InputSize)

	p.SetWorkers(1)
	want := p.PredictBatch(imgs)

	for _, workers := range []int{2, 3, 16} {
		p.SetWorkers(workers)
		got := p.PredictBatch(imgs)
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d scores, want %d", workers, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: score %d = %g, want %g", workers, i, got[i], want[i])
			}
		}
	}
}

// TestPredictBatchReplicasTrackTraining ensures cached replicas are dropped
// when training rewrites the weights.
func TestPredictBatchReplicasTrackTraining(t *testing.T) {
	cfg := TinyConfig()
	cfg.InputSize = 16
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(78))
	imgs := randImages(rng, 6, cfg.InputSize)
	p.SetWorkers(3)
	before := p.PredictBatch(imgs) // builds and caches replicas

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

	after := p.PredictBatch(imgs)
	p.SetWorkers(1)
	serial := p.PredictBatch(imgs)
	changed := false
	for i := range after {
		if after[i] != serial[i] {
			t.Fatalf("post-train sharded score %d = %g, serial %g (stale replica?)", i, after[i], serial[i])
		}
		if after[i] != before[i] {
			changed = true
		}
	}
	if !changed {
		t.Fatal("training did not move any prediction; replica test is vacuous")
	}
}

// TestPredictBatchConcurrentMatchesSerial: one predictor shared by several
// goroutines, as the pipelined flow's slots and the job service share
// theirs. Four goroutines score batches of 1, 2, 3 and 5 images, each in
// its own rotation, on one fresh two-lane TinyConfig predictor at once;
// every score must equal a serial call's bit for bit. Under -race it also
// holds that no two calls touch the lanes, their input tensors or the lane
// pool at the same time.
func TestPredictBatchConcurrentMatchesSerial(t *testing.T) {
	ref, err := New(TinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	ref.SetWorkers(1)
	rng := rand.New(rand.NewSource(79))
	sizes := []int{1, 2, 3, 5}
	batches := make([][]*grid.Grid, len(sizes))
	want := make([][]float64, len(sizes))
	for i, n := range sizes {
		batches[i] = randImages(rng, n, ref.Cfg.InputSize)
		want[i] = ref.PredictBatch(batches[i])
	}

	p, err := New(TinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	p.SetWorkers(2)
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := range 2 * len(sizes) {
				b := (g + rep) % len(sizes)
				got := p.PredictBatch(batches[b])
				for i := range want[b] {
					if got[i] != want[b][i] {
						t.Errorf("goroutine %d, batch of %d: score %d = %g, serial %g", g, sizes[b], i, got[i], want[b][i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
