package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ldmo/internal/grid"
	"ldmo/internal/runx"
)

func noSleep(context.Context, time.Duration) error { return nil }

// newTestServer builds a server on a throwaway store plus an httptest front
// end. The caller decides whether to Start the executor.
func newTestServer(t *testing.T, mutate func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	cfg := Config{
		Dir:     t.TempDir(),
		Workers: 1,
		Retry:   runx.RetryConfig{Sleep: noSleep},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	})
	return s, ts
}

func genJob(seed int64) string {
	return fmt.Sprintf(`{"gen_seed":%d,"fast":true,"max_attempts":1}`, seed)
}

func submit(t *testing.T, ts *httptest.Server, client, body string) (int, SubmitResponse, http.Header) {
	t.Helper()
	req, err := http.NewRequest("POST", ts.URL+"/v1/jobs", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if client != "" {
		req.Header.Set("X-LDMO-Client", client)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr SubmitResponse
	json.NewDecoder(resp.Body).Decode(&sr)
	return resp.StatusCode, sr, resp.Header
}

func getStatus(t *testing.T, ts *httptest.Server, id string) (int, SubmitResponse) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr SubmitResponse
	json.NewDecoder(resp.Body).Decode(&sr)
	return resp.StatusCode, sr
}

// waitJob polls until the job settles (done or failed).
func waitJob(t *testing.T, ts *httptest.Server, id string) State {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		code, sr := getStatus(t, ts, id)
		if code != http.StatusOK {
			t.Fatalf("GET job %s: %d", id, code)
		}
		if sr.Status == StatusDone || sr.Status == StatusFailed {
			return sr.State
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("job %s never settled", id)
	return State{}
}

func TestSubmitPollResult(t *testing.T) {
	s, ts := newTestServer(t, nil)
	s.Start()

	code, sr, _ := submit(t, ts, "smoke", genJob(3))
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d, want 202", code)
	}
	if sr.Status != StatusQueued && sr.Status != StatusRunning && sr.Status != StatusDone {
		t.Fatalf("submit state: %q", sr.Status)
	}
	st := waitJob(t, ts, sr.ID)
	if st.Status != StatusDone || st.Result == nil {
		t.Fatalf("job settled %q (err %q), want done with result", st.Status, st.Error)
	}
	r := st.Result
	if r.Decomposition == "" || r.Candidates < 1 || len(r.M1SHA256) != 64 || len(r.PrintedSHA256) != 64 {
		t.Fatalf("result incomplete: %+v", r)
	}
	if r.Seconds <= 0 {
		t.Fatalf("deterministic model time missing: %+v", r)
	}

	// Listing returns a summary with the result stripped.
	resp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list []State
	json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	if len(list) != 1 || list[0].ID != sr.ID || list[0].Result != nil {
		t.Fatalf("listing: %+v", list)
	}
	if got := s.Stats(); got.Done != 1 || got.Accepted != 1 {
		t.Fatalf("stats: %+v", got)
	}
}

// TestOversizedRasterRejected: a CSV whose window rasterizes to 50 000 x
// 50 000 px passes Validate and Layout, but simulating it would need tens of
// gigabytes of spectra. The submission is refused with 400 by the
// simulator's own raster check before anything is queued or persisted, and
// the server keeps serving real jobs.
func TestOversizedRasterRejected(t *testing.T) {
	s, ts := newTestServer(t, nil)
	s.Start()
	spec := JobSpec{CSV: "# window 0 0 400000 400000\n100,100,200,200\n", Fast: true}
	if err := spec.Validate(); err != nil {
		t.Fatalf("spec no longer passes Validate (%v); the test needs a spec that does", err)
	}
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	if code, _, _ := submit(t, ts, "big", string(body)); code != http.StatusBadRequest {
		t.Fatalf("oversized raster: %d, want 400", code)
	}
	if got := s.Stats(); got.Accepted != 0 || got.QueueLen != 0 {
		t.Fatalf("oversized job admitted: %+v", got)
	}
	if code := getCode(t, ts, "/healthz"); code != http.StatusOK {
		t.Fatalf("healthz after the rejection: %d, want 200", code)
	}
	code, sr, _ := submit(t, ts, "cell", `{"cell":"INV_X1","fast":true,"max_attempts":1}`)
	if code != http.StatusAccepted {
		t.Fatalf("library-cell job: %d, want 202", code)
	}
	if st := waitJob(t, ts, sr.ID); st.Status != StatusDone {
		t.Fatalf("library-cell job settled %q (%s), want done", st.Status, st.Error)
	}
}

func TestOverloadShedsWith429(t *testing.T) {
	s, ts := newTestServer(t, func(c *Config) { c.QueueCap = 2 })
	// No Start: the queue cannot drain, modelling a saturated server.

	for seed := int64(1); seed <= 2; seed++ {
		if code, _, _ := submit(t, ts, "a", genJob(seed)); code != http.StatusAccepted {
			t.Fatalf("submit %d: %d, want 202", seed, code)
		}
	}
	code, _, hdr := submit(t, ts, "a", genJob(3))
	if code != http.StatusTooManyRequests {
		t.Fatalf("overloaded submit: %d, want 429", code)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("429 must carry a Retry-After hint")
	}
	// Shedding bounds memory: nothing about the refused job is retained.
	if got := s.Stats(); got.Shed != 1 || got.Accepted != 2 || got.QueueLen != 2 {
		t.Fatalf("stats after shed: %+v", got)
	}
	s.mu.Lock()
	n := len(s.jobs)
	s.mu.Unlock()
	if n != 2 {
		t.Fatalf("shed job leaked into memory: %d entries", n)
	}

	// Saturation flips readiness but not liveness.
	if code := getCode(t, ts, "/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz while saturated: %d, want 503", code)
	}
	if code := getCode(t, ts, "/healthz"); code != http.StatusOK {
		t.Fatalf("healthz while saturated: %d, want 200", code)
	}
}

func getCode(t *testing.T, ts *httptest.Server, path string) int {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

func TestDedupeReturnsCachedResult(t *testing.T) {
	s, ts := newTestServer(t, nil)
	s.Start()

	_, first, _ := submit(t, ts, "a", genJob(4))
	done := waitJob(t, ts, first.ID)

	code, again, _ := submit(t, ts, "b", genJob(4))
	if code != http.StatusOK || !again.Cached {
		t.Fatalf("resubmit of a done job: code %d cached %v, want 200 cached", code, again.Cached)
	}
	if again.Result == nil || again.Result.M1SHA256 != done.Result.M1SHA256 {
		t.Fatalf("cached result differs: %+v vs %+v", again.Result, done.Result)
	}
	if got := s.Stats(); got.CacheHits != 1 || got.Done != 1 {
		t.Fatalf("stats: %+v (the cached hit must not recompute)", got)
	}
}

func TestResubmitWhileQueuedIsIdempotent(t *testing.T) {
	s, ts := newTestServer(t, nil) // no Start: job stays queued

	_, first, _ := submit(t, ts, "a", genJob(9))
	code, second, _ := submit(t, ts, "a", genJob(9))
	if code != http.StatusAccepted || second.ID != first.ID {
		t.Fatalf("idempotent resubmit: code %d id %s, want 202 with %s", code, second.ID, first.ID)
	}
	if got := s.Stats(); got.Accepted != 1 || got.QueueLen != 1 {
		t.Fatalf("duplicate submission must not double-queue: %+v", got)
	}
}

func TestSubmitRejectsMalformedSpecs(t *testing.T) {
	_, ts := newTestServer(t, nil)
	for _, body := range []string{
		"not json at all",
		"{}",                           // no layout source
		`{"cell":"AND2","gen_seed":1}`, // two layout sources
		`{"gen_seed":-5}`,              // invalid seed
		`{"gds_b64":"%%%"}`,            // undecodable upload
		`{"cell":"NO_SUCH_CELL"}`,      // unknown library cell
	} {
		if code, _, _ := submit(t, ts, "a", body); code != http.StatusBadRequest {
			t.Errorf("submit %q: %d, want 400", body, code)
		}
	}
}

func TestJobNotFound(t *testing.T) {
	_, ts := newTestServer(t, nil)
	if code, _ := getStatus(t, ts, "j-missing"); code != http.StatusNotFound {
		t.Fatalf("unknown job: %d, want 404", code)
	}
}

func TestDrainStopsAdmission(t *testing.T) {
	s, ts := newTestServer(t, nil)
	if code := getCode(t, ts, "/readyz"); code != http.StatusOK {
		t.Fatalf("readyz before drain: %d", code)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if code := getCode(t, ts, "/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining: %d, want 503", code)
	}
	if code, _, _ := submit(t, ts, "a", genJob(1)); code != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: %d, want 503", code)
	}
	if code := getCode(t, ts, "/healthz"); code != http.StatusOK {
		t.Fatalf("healthz while draining: %d, want 200", code)
	}
}

// sumScorer is a deterministic stand-in predictor: score = pixel sum.
type sumScorer struct{ calls atomic.Int64 }

func (sc *sumScorer) PredictBatch(imgs []*grid.Grid) []float64 {
	sc.calls.Add(1)
	out := make([]float64, len(imgs))
	for i, g := range imgs {
		for _, v := range g.Data {
			out[i] += v
		}
	}
	return out
}

// flakyScorer panics for the first `panics` PredictBatch calls, then behaves.
type flakyScorer struct {
	sumScorer
	panics atomic.Int32
}

func (sc *flakyScorer) PredictBatch(imgs []*grid.Grid) []float64 {
	if sc.panics.Add(-1) >= 0 {
		panic("injected scorer crash")
	}
	return sc.sumScorer.PredictBatch(imgs)
}

func TestScorerPanicRetriesToCleanResult(t *testing.T) {
	flaky := &flakyScorer{}
	flaky.panics.Store(1)
	s, ts := newTestServer(t, func(c *Config) {
		c.Scorer = flaky
		c.Retry = runx.RetryConfig{Attempts: 3, Sleep: noSleep}
	})
	s.Start()

	_, sr, _ := submit(t, ts, "a", genJob(5))
	st := waitJob(t, ts, sr.ID)
	if st.Status != StatusDone || st.Result == nil {
		t.Fatalf("job: %q (%s), want done", st.Status, st.Error)
	}
	// Attempt 1 hit the panic and degraded; the retry got a healthy scorer,
	// so the final result is clean — not a fallback, not degraded.
	if st.Result.Retries != 1 || st.Result.ScorerFallback || st.Result.Degraded {
		t.Fatalf("retry outcome: %+v, want Retries=1 clean", st.Result)
	}
	if got := s.Stats(); got.Retries != 1 {
		t.Fatalf("stats: %+v, want Retries=1", got)
	}
}

func TestStickyScorerFaultFallsToDegradedResult(t *testing.T) {
	flaky := &flakyScorer{}
	flaky.panics.Store(1 << 20) // never recovers
	s, ts := newTestServer(t, func(c *Config) {
		c.Scorer = flaky
		c.Retry = runx.RetryConfig{Attempts: 2, Sleep: noSleep}
	})
	s.Start()

	_, sr, _ := submit(t, ts, "a", genJob(6))
	st := waitJob(t, ts, sr.ID)
	// Retries exhausted, but the flow's own ladder still produced masks in
	// generator order — the job completes degraded instead of failing.
	if st.Status != StatusDone || st.Result == nil {
		t.Fatalf("job: %q (%s), want degraded done", st.Status, st.Error)
	}
	if !st.Result.Degraded || !st.Result.ScorerFallback || st.Result.M1SHA256 == "" {
		t.Fatalf("degraded outcome: %+v", st.Result)
	}
	if st.Error == "" {
		t.Fatal("degraded job must carry the cause as a note")
	}
}
