// Pipelined flow scheduling: a fixed set of slots carries layouts through
// the Fig. 2 flow with the three stages — candidate generation,
// printability prediction, ILT mask optimization — overlapped across layouts
// instead of run layout-at-a-time.
//
// Each slot claims its next job as soon as its last one is done and runs it
// through the stage methods RunContext composes: it generates the layout's
// candidates, scores them with one Flow.predict call, and optimizes masks
// for them. The slots share one scorer, which must be safe for concurrent
// use (*model.Predictor serializes its own calls), and a score is a
// per-image function of the image alone, so each job's result is bitwise
// what Flow.RunContext returns for it, at any slot count.
//
// RunStream feeds the slots from a caller's source; RunPipelineCtx feeds
// them from a slice. Cancellation preserves a completed-prefix contract over
// claim order: no slot claims once the pipeline context is done, claimed
// layouts drain through their remaining stages exactly as a serial
// RunContext under the same cancelled context would (generation and scoring
// are not ctx-gated; the ILT attempt loop is, landing each on rung 3 of the
// degradation ladder with its best attempted state), while layouts never
// claimed are returned untouched, tagged Interrupted with the context's
// error and no work performed.
package core

import (
	"context"
	"sync"
	"time"

	"ldmo/internal/faultinject"
	"ldmo/internal/layout"
	"ldmo/internal/par"
)

// PipelineOptions tunes RunPipelineCtx. The zero value selects the defaults.
type PipelineOptions struct {
	// Workers sizes the scheduler, which runs max(2, Workers) slots so that
	// a slow job never holds up the next one, even on a single-core host
	// (serve's TestFreeSlotAdmitsJobPastSlowOne); 0 selects par.Workers().
	// CPU parallelism stays bounded by GOMAXPROCS.
	Workers int
}

// PipeResult pairs one layout's flow outcome with its error, exactly what
// the corresponding serial RunContext call would have returned.
type PipeResult struct {
	Res Result
	Err error
}

// StreamJob is one job a RunStream source hands to a slot: the flow to run
// it with (each job may carry its own config, but every job of one run
// shares one scorer), the layout, and the callback that receives the result
// on the slot's goroutine before the slot claims again.
type StreamJob struct {
	Flow   *Flow
	Layout layout.Layout
	Done   func(PipeResult)
}

// PipelineStats reports the scheduler's measured behavior. Busy durations
// are summed across slots; divide by Wall*Workers for occupancy.
type PipelineStats struct {
	// Workers is the slot count; Layouts the number of jobs the slots ran.
	Workers int
	Layouts int
	// Coalesce.Flushes counts scorer invocations: one per layout with a
	// scorer and more than one candidate, as in the serial flow. The
	// benchmark in bench/ reads it under this name.
	Coalesce struct{ Flushes int }
	// Images is the total number of candidate images scored.
	Images int
	// Per-stage busy time summed over slots. PredictBusy and ScoreWait
	// both time the prediction stage, any wait for the scorer's lock
	// included.
	GenBusy     time.Duration
	PredictBusy time.Duration
	ScoreWait   time.Duration
	OptBusy     time.Duration
	// Wall is the scheduler's total wall-clock time.
	Wall time.Duration
}

// stream is the shared state of one scheduler run.
type stream struct {
	ctx    context.Context // pipeline context: claim gate + layout runs
	cancel context.CancelFunc
	next   func(context.Context) (StreamJob, bool)

	mu    sync.Mutex
	stats PipelineStats
}

// newStream sets up a scheduler run over a source.
func newStream(ctx context.Context, next func(context.Context) (StreamJob, bool)) *stream {
	if ctx == nil {
		ctx = context.Background()
	}
	s := &stream{next: next}
	// Derive a cancellable pipeline context only when cancellation can
	// actually occur (cancellable parent, or the cancel-after fault armed).
	// A cancellable context flips the ILT optimizer into best-so-far
	// snapshot tracking, which charges extra forward passes to the model
	// clock — RunContext behaves the same way, so matching its condition
	// here is part of the bitwise serial==pipelined contract.
	if ctx.Done() != nil || faultinject.Enabled(faultinject.CancelAfter) {
		s.ctx, s.cancel = context.WithCancel(ctx)
	} else {
		s.ctx, s.cancel = ctx, func() {}
	}
	return s
}

// RunStream runs jobs from next on slots goroutines and returns the
// scheduler's statistics once every slot has exited. Each slot calls next
// for its next job as soon as its last one is done; next must be safe for
// concurrent use, may block until a job arrives, and reports false when no
// job will come, at the latest once the context it is passed is done. No
// slot claims once that context, derived from ctx, is done. Each job's
// result is bitwise what job.Flow.RunContext(ctx, job.Layout) returns; the
// jobs' flows share their scorer, which must be safe for concurrent use.
func RunStream(ctx context.Context, slots int, next func(context.Context) (StreamJob, bool)) PipelineStats {
	s := newStream(ctx, next)
	defer s.cancel()
	s.run(max(1, slots))
	return s.stats
}

// RunPipeline is RunPipelineCtx without external cancellation.
func (f *Flow) RunPipeline(ls []layout.Layout, po PipelineOptions) ([]PipeResult, PipelineStats) {
	return f.RunPipelineCtx(context.Background(), ls, po)
}

// RunPipelineCtx runs the flow over every layout on the slot scheduler.
// results[i] is bitwise what RunContext(ctx, ls[i]) returns; see the
// package comment for the determinism and cancellation contracts. Layouts
// are claimed in index order, and the slots call the flow's scorer
// concurrently, so it must be safe for concurrent use.
func (f *Flow) RunPipelineCtx(ctx context.Context, ls []layout.Layout, po PipelineOptions) ([]PipeResult, PipelineStats) {
	w := po.Workers
	if w <= 0 {
		w = par.Workers()
	}
	results := make([]PipeResult, len(ls))
	var mu sync.Mutex
	claimed := 0
	s := newStream(ctx, func(context.Context) (StreamJob, bool) {
		mu.Lock()
		defer mu.Unlock()
		if claimed >= len(ls) {
			return StreamJob{}, false
		}
		i := claimed
		claimed++
		return StreamJob{Flow: f, Layout: ls[i], Done: func(r PipeResult) { results[i] = r }}, true
	})
	defer s.cancel()
	s.run(max(2, w))

	// Whatever was never claimed was cancelled before any of its work began:
	// no generation, no scoring, no masks — just the tag and cause.
	for i := claimed; i < len(ls); i++ {
		results[i] = PipeResult{
			Res: Result{Layout: ls[i], Interrupted: true},
			Err: s.ctx.Err(),
		}
	}
	return results, s.stats
}

// run starts the slots and waits for all of them to exit.
func (s *stream) run(slots int) {
	s.stats.Workers = slots
	start := time.Now()
	var wg sync.WaitGroup
	for range slots {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for job, ok := s.claim(); ok; job, ok = s.claim() {
				s.runJob(job)
			}
		}()
	}
	wg.Wait()
	s.stats.Wall = time.Since(start)
}

// claim takes the next job from the source, unless the pipeline context is
// done.
func (s *stream) claim() (StreamJob, bool) {
	if s.ctx.Err() != nil {
		return StreamJob{}, false
	}
	return s.next(s.ctx)
}

// runJob carries one claimed job through generate -> score -> optimize and
// hands the result to its callback.
func (s *stream) runJob(job StreamJob) {
	t0 := time.Now()
	lr, err := job.Flow.generate(job.Layout)
	s.addBusy(&s.stats.GenBusy, time.Since(t0))
	if err != nil {
		s.finish(job, PipeResult{Err: err})
		return
	}
	if lr.imgs != nil {
		t1 := time.Now()
		scores, serr := job.Flow.predict(lr.imgs)
		s.addPredict(len(lr.imgs), time.Since(t1))
		lr.applyScores(scores, serr)
	}
	t2 := time.Now()
	lctx, lcancel := job.Flow.cfg.Budget.Apply(s.ctx)
	res, rerr := lr.optimize(lctx)
	lcancel()
	s.addBusy(&s.stats.OptBusy, time.Since(t2))
	s.finish(job, PipeResult{Res: res, Err: rerr})
}

// finish delivers a job's result, counts the job, and services the
// cancel-after fault point: when armed with n, the pipeline cancels its own
// context once n jobs have finished, deterministically exercising the drain
// path.
func (s *stream) finish(job StreamJob, r PipeResult) {
	job.Done(r)
	s.mu.Lock()
	s.stats.Layouts++
	done := s.stats.Layouts
	s.mu.Unlock()
	if n := faultinject.ArgInt(faultinject.CancelAfter, -1); n >= 0 && done >= n {
		s.cancel()
	}
}

// addBusy accumulates a stage duration under the scheduler lock.
func (s *stream) addBusy(d *time.Duration, dt time.Duration) {
	s.mu.Lock()
	*d += dt
	s.mu.Unlock()
}

// addPredict counts one scorer invocation over n images that took dt.
func (s *stream) addPredict(n int, dt time.Duration) {
	s.mu.Lock()
	s.stats.Coalesce.Flushes++
	s.stats.Images += n
	s.stats.PredictBusy += dt
	s.stats.ScoreWait += dt
	s.mu.Unlock()
}
