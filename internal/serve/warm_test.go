package serve

import (
	"net/http"
	"sync/atomic"
	"testing"

	"ldmo/internal/grid"
)

// fakeWarm is a deterministic warm-starter with a configurable checkpoint
// digest, standing in for a trained model.WarmStarter.
type fakeWarm struct {
	digest string
	calls  atomic.Int64
}

func (f *fakeWarm) WarmMasksInto(c1, c2 *grid.Grid, w1, w2 []float64) bool {
	f.calls.Add(1)
	for i, v := range c1.Data {
		w1[i] = 0.8*v + 0.1
	}
	for i, v := range c2.Data {
		w2[i] = 0.8*v + 0.1
	}
	return true
}

func (f *fakeWarm) Digest() string { return f.digest }

// fakeDigestScorer is a scorer that exposes provenance.
type fakeDigestScorer struct{ digest string }

func (f fakeDigestScorer) PredictBatch(imgs []*grid.Grid) []float64 {
	return make([]float64, len(imgs))
}
func (f fakeDigestScorer) Digest() string { return f.digest }

// TestJobIDFoldsEngineProvenance pins the dedupe-key contract: a server with
// no digestable learned components issues plain content-addressed spec IDs
// (compatible with stores written before provenance existed), while swapping
// in a retrained checkpoint — scorer or warm-starter — moves every job to a
// fresh ID so stale cached results cannot be served.
func TestJobIDFoldsEngineProvenance(t *testing.T) {
	spec := JobSpec{Cell: "INV_X1", Fast: true}

	bare, _ := newTestServer(t, nil)
	if got := bare.jobID(spec); got != spec.ID() {
		t.Fatalf("no-provenance server changed job IDs: %s vs %s", got, spec.ID())
	}

	warmA, _ := newTestServer(t, func(c *Config) { c.WarmStarter = &fakeWarm{digest: "aaaa"} })
	warmA2, _ := newTestServer(t, func(c *Config) { c.WarmStarter = &fakeWarm{digest: "aaaa"} })
	warmB, _ := newTestServer(t, func(c *Config) { c.WarmStarter = &fakeWarm{digest: "bbbb"} })
	idA, idA2, idB := warmA.jobID(spec), warmA2.jobID(spec), warmB.jobID(spec)
	if idA == spec.ID() {
		t.Fatal("warm-starter digest not folded into the job ID")
	}
	if idA != idA2 {
		t.Fatalf("same checkpoint, different IDs: %s vs %s", idA, idA2)
	}
	if idA == idB {
		t.Fatal("retrained warm-starter kept the old job ID (stale cache would be served)")
	}

	scored, _ := newTestServer(t, func(c *Config) { c.Scorer = fakeDigestScorer{digest: "ssss"} })
	both, _ := newTestServer(t, func(c *Config) {
		c.Scorer = fakeDigestScorer{digest: "ssss"}
		c.WarmStarter = &fakeWarm{digest: "aaaa"}
	})
	if scored.jobID(spec) == spec.ID() || scored.jobID(spec) == idA || both.jobID(spec) == scored.jobID(spec) {
		t.Fatal("scorer digest not independently folded into the job ID")
	}

	// A warm-starter without a Digest method (ablation stub) contributes no
	// provenance: IDs stay plain.
	plainWarm, _ := newTestServer(t, func(c *Config) { c.WarmStarter = noDigestWarm{} })
	if got := plainWarm.jobID(spec); got != spec.ID() {
		t.Fatalf("digestless component changed job IDs: %s vs %s", got, spec.ID())
	}
}

type noDigestWarm struct{}

func (noDigestWarm) WarmMasksInto(c1, c2 *grid.Grid, w1, w2 []float64) bool { return false }

// TestWarmJobTogglesPerSpec runs a warm and a cold job against one server:
// the warm spec is a distinct job (own ID, own group), the warm-starter is
// consulted exactly for it, and both settle done.
func TestWarmJobTogglesPerSpec(t *testing.T) {
	fw := &fakeWarm{digest: "cafe"}
	s, ts := newTestServer(t, func(c *Config) { c.WarmStarter = fw })
	s.Start()

	cold := JobSpec{GenSeed: ptr(int64(4)), Fast: true, MaxAttempts: 1}
	warm := cold
	warm.Warm = true
	if cold.groupKey() == warm.groupKey() {
		t.Fatal("warm flag missing from the group key: warm and cold jobs would share a flow")
	}
	if s.jobID(cold) == s.jobID(warm) {
		t.Fatal("warm flag missing from the content hash")
	}

	code, srCold, _ := submit(t, ts, "a", `{"gen_seed":4,"fast":true,"max_attempts":1}`)
	if code != http.StatusAccepted {
		t.Fatalf("cold submit: %d", code)
	}
	stCold := waitJob(t, ts, srCold.ID)
	if stCold.Status != StatusDone {
		t.Fatalf("cold job: %q (%s)", stCold.Status, stCold.Error)
	}
	if n := fw.calls.Load(); n != 0 {
		t.Fatalf("cold job consulted the warm-starter %d times", n)
	}

	code, srWarm, _ := submit(t, ts, "a", `{"gen_seed":4,"fast":true,"max_attempts":1,"warm":true}`)
	if code != http.StatusAccepted {
		t.Fatalf("warm submit: %d", code)
	}
	if srWarm.ID == srCold.ID {
		t.Fatal("warm job deduped against the cold job")
	}
	stWarm := waitJob(t, ts, srWarm.ID)
	if stWarm.Status != StatusDone {
		t.Fatalf("warm job: %q (%s)", stWarm.Status, stWarm.Error)
	}
	if fw.calls.Load() == 0 {
		t.Fatal("warm job never consulted the warm-starter")
	}
}

func ptr[T any](v T) *T { return &v }
