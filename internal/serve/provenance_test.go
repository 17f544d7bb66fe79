package serve

import (
	"testing"

	"ldmo/internal/grid"
)

// fakeDigestScorer is a scorer that exposes provenance.
type fakeDigestScorer struct{ digest string }

func (f fakeDigestScorer) PredictBatch(imgs []*grid.Grid) []float64 {
	return make([]float64, len(imgs))
}
func (f fakeDigestScorer) Digest() string { return f.digest }

// TestJobIDFoldsEngineProvenance pins the dedupe-key contract: a server with
// no digestable scorer issues plain content-addressed spec IDs (compatible
// with stores written before provenance existed), while swapping in a
// retrained checkpoint moves every job to a fresh ID so stale cached results
// cannot be served.
func TestJobIDFoldsEngineProvenance(t *testing.T) {
	spec := JobSpec{Cell: "INV_X1", Fast: true}

	bare, _ := newTestServer(t, nil)
	if got := bare.jobID(spec); got != spec.ID() {
		t.Fatalf("no-provenance server changed job IDs: %s vs %s", got, spec.ID())
	}

	a, _ := newTestServer(t, func(c *Config) { c.Scorer = fakeDigestScorer{digest: "aaaa"} })
	a2, _ := newTestServer(t, func(c *Config) { c.Scorer = fakeDigestScorer{digest: "aaaa"} })
	b, _ := newTestServer(t, func(c *Config) { c.Scorer = fakeDigestScorer{digest: "bbbb"} })
	idA, idA2, idB := a.jobID(spec), a2.jobID(spec), b.jobID(spec)
	if idA == spec.ID() {
		t.Fatal("scorer digest not folded into the job ID")
	}
	if idA != idA2 {
		t.Fatalf("same checkpoint, different IDs: %s vs %s", idA, idA2)
	}
	if idA == idB {
		t.Fatal("retrained scorer kept the old job ID (stale cache would be served)")
	}

	// A scorer without a Digest method (test fake, ablation stub)
	// contributes no provenance: IDs stay plain.
	plain, _ := newTestServer(t, func(c *Config) { c.Scorer = &sumScorer{} })
	if got := plain.jobID(spec); got != spec.ID() {
		t.Fatalf("digestless scorer changed job IDs: %s vs %s", got, spec.ID())
	}
}
