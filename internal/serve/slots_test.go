package serve

import (
	"context"
	"fmt"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"ldmo/internal/grid"
	"ldmo/internal/runx"
)

// slowJob is a 4 nm library-cell job on which every candidate trips the
// violation check, so it runs all nine ILT attempts: about 8x the time of a
// fast genJob.
const slowJob = `{"cell":"DFF_X1"}`

// waitRunning polls until n jobs are running.
func waitRunning(t *testing.T, s *Server, n int) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for s.Stats().Running != n {
		if time.Now().After(deadline) {
			t.Fatalf("running = %d, want %d", s.Stats().Running, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFreeSlotAdmitsJobPastSlowOne: a fast 8 nm job submitted while a slow
// 4 nm job runs is claimed by the free slot and settles first, instead of
// waiting for the slow job to finish.
func TestFreeSlotAdmitsJobPastSlowOne(t *testing.T) {
	s, ts := newTestServer(t, func(c *Config) { c.Scorer = &sumScorer{} })
	s.Start()

	_, slow, _ := submit(t, ts, "slow", slowJob)
	waitRunning(t, s, 1)
	_, fast, _ := submit(t, ts, "fast", genJob(21))
	if st := waitJob(t, ts, fast.ID); st.Status != StatusDone {
		t.Fatalf("fast job: %q (%s)", st.Status, st.Error)
	}
	if _, sr := getStatus(t, ts, slow.ID); sr.Status != StatusRunning {
		t.Fatalf("slow job is %q when the fast one settled; the fast job waited for it", sr.Status)
	}
	if st := waitJob(t, ts, slow.ID); st.Status != StatusDone {
		t.Fatalf("slow job: %q (%s)", st.Status, st.Error)
	}
}

// digestCounter is a digestable scorer that counts its Digest calls.
type digestCounter struct {
	sumScorer
	digests atomic.Int64
}

func (d *digestCounter) Digest() string {
	d.digests.Add(1)
	return "counted"
}

// TestFingerprintComputedOnce: the scorer's digest is read once, when the
// server is built, and reused for every job ID — new submissions, idempotent
// resubmits and dedupe hits alike.
func TestFingerprintComputedOnce(t *testing.T) {
	sc := &digestCounter{}
	s, ts := newTestServer(t, func(c *Config) { c.Scorer = sc })
	spec := JobSpec{Cell: "INV_X1", Fast: true}
	want := s.jobID(spec)

	_, first, _ := submit(t, ts, "a", genJob(31))
	if code, again, _ := submit(t, ts, "a", genJob(31)); code != http.StatusAccepted || again.ID != first.ID {
		t.Fatalf("idempotent resubmit: %d %s, want 202 %s", code, again.ID, first.ID)
	}
	s.Start()
	waitJob(t, ts, first.ID)
	if code, hit, _ := submit(t, ts, "b", genJob(31)); code != http.StatusOK || !hit.Cached {
		t.Fatalf("dedupe hit: %d cached %v", code, hit.Cached)
	}
	_, other, _ := submit(t, ts, "b", genJob(32))
	waitJob(t, ts, other.ID)
	if got := s.jobID(spec); got != want {
		t.Fatalf("job ID moved from %s to %s", want, got)
	}
	if n := sc.digests.Load(); n != 1 {
		t.Fatalf("Digest called %d times, want 1", n)
	}
}

// overlapScorer fails the test when two of its calls overlap, and panics on
// its first call.
type overlapScorer struct {
	t        *testing.T
	inFlight atomic.Int32
	calls    atomic.Int32
	sumScorer
}

func (sc *overlapScorer) PredictBatch(imgs []*grid.Grid) []float64 {
	if sc.inFlight.Add(1) > 1 {
		sc.t.Error("two predictions overlap")
	}
	defer sc.inFlight.Add(-1)
	if sc.calls.Add(1) == 1 {
		panic("injected scorer crash")
	}
	// Widen the window in which an unserialized call would overlap.
	time.Sleep(20 * time.Millisecond)
	return sc.sumScorer.PredictBatch(imgs)
}

// TestPredictionsNeverOverlap: the server's predictions go through one
// serialization point. The jobs are queued before the executor starts, so
// the three slots claim at once and their first flush carries several jobs.
// The scorer's first call panics, so every job of that flush retries on its
// own RunContext while the other slots keep claiming and flushing; no two
// calls may overlap.
func TestPredictionsNeverOverlap(t *testing.T) {
	sc := &overlapScorer{t: t}
	s, ts := newTestServer(t, func(c *Config) {
		c.Scorer = sc
		c.Workers = 3
		c.Retry = runx.RetryConfig{Attempts: 3, Sleep: noSleep}
	})
	var ids []string
	for i := int64(0); i < 8; i++ {
		_, sr, _ := submit(t, ts, fmt.Sprint("c", i%3), genJob(40+i))
		ids = append(ids, sr.ID)
	}
	s.Start()
	for _, id := range ids {
		if st := waitJob(t, ts, id); st.Status != StatusDone || st.Result.Degraded {
			t.Fatalf("job %s: %q degraded=%v (%s)", id, st.Status, st.Result != nil && st.Result.Degraded, st.Error)
		}
	}
	if got := s.Stats(); got.Retries < 1 {
		t.Fatalf("the injected panic forced no retry: %+v", got)
	}
}

// runningWalk counts the running jobs by walking every job, and reads the
// server's running count, both under s.mu.
func runningWalk(s *Server) (walk, count int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range s.jobs {
		if e.state.Status == StatusRunning {
			walk++
		}
	}
	return walk, int(s.running.Load())
}

// TestRunningCountMatchesWalk: Stats reads the running count from a field
// kept at claim, settle and requeue; it must agree with a walk over every
// job while jobs run, after they settle, and after a drain requeues a
// running job.
func TestRunningCountMatchesWalk(t *testing.T) {
	s, ts := newTestServer(t, func(c *Config) { c.Scorer = &sumScorer{} })
	s.Start()
	var ids []string
	for i := int64(0); i < 4; i++ {
		_, sr, _ := submit(t, ts, "a", genJob(50+i))
		ids = append(ids, sr.ID)
	}
	for _, id := range ids {
		if walk, count := runningWalk(s); walk != count {
			t.Fatalf("while running: walk %d, count %d", walk, count)
		}
		waitJob(t, ts, id)
	}
	if walk, count := runningWalk(s); walk != 0 || count != 0 {
		t.Fatalf("after settling: walk %d, count %d, want 0", walk, count)
	}

	_, slow, _ := submit(t, ts, "a", slowJob)
	waitRunning(t, s, 1)
	if walk, count := runningWalk(s); walk != 1 || count != 1 {
		t.Fatalf("slow job running: walk %d, count %d, want 1", walk, count)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if walk, count := runningWalk(s); walk != 0 || count != 0 {
		t.Fatalf("after drain: walk %d, count %d, want 0", walk, count)
	}
	if _, sr := getStatus(t, ts, slow.ID); sr.Status != StatusQueued {
		t.Fatalf("drained slow job is %q, want queued", sr.Status)
	}
	if got := s.Stats(); got.Running != 0 || got.Requeued != 1 {
		t.Fatalf("stats after drain: %+v", got)
	}
}
