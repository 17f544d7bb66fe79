package model

import (
	"testing"

	"ldmo/internal/grid"
)

// TestPredictorCachesReplicasAndPool pins the steady-state inference
// contract: repeated PredictBatch calls reuse the folded replicas and the
// lane pool; SetWorkers rebuilds only the pool; weight invalidation drops
// the replicas so the next call re-folds fresh weights.
func TestPredictorCachesReplicasAndPool(t *testing.T) {
	p, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	p.SetWorkers(2)
	imgs := make([]*grid.Grid, 4)
	for i := range imgs {
		imgs[i] = syntheticDataset(1, int64(i)).Samples[0].Image
	}
	p.PredictBatch(imgs)
	pool, frozen := p.pool, p.frozenNets(1)[0]
	if pool == nil || frozen == nil {
		t.Fatal("first PredictBatch did not populate the caches")
	}
	p.PredictBatch(imgs)
	if p.pool != pool {
		t.Fatal("lane pool rebuilt on a steady-state call")
	}
	if p.frozenNets(1)[0] != frozen {
		t.Fatal("frozen replica rebuilt on a steady-state call")
	}
	p.SetWorkers(3)
	p.PredictBatch(imgs)
	if p.pool == pool {
		t.Fatal("SetWorkers did not rebuild the lane pool")
	}
	if p.frozenNets(1)[0] != frozen {
		t.Fatal("SetWorkers needlessly dropped the frozen replicas")
	}
	p.invalidateReplicas()
	p.PredictBatch(imgs)
	if p.frozenNets(1)[0] == frozen {
		t.Fatal("invalidation did not drop the frozen replicas")
	}
}
