// Pipelined flow scheduling: a fixed set of slots carries layouts through
// the Fig. 2 flow with the three stages — candidate generation,
// printability prediction, ILT mask optimization — overlapped across layouts
// instead of run layout-at-a-time.
//
// Each slot claims its next job as soon as its last one is done and
// announces the claim to a request-coalescing queue (par.Coalescer) when it
// makes it. A slot that finishes generating submits its layout's whole
// candidate-image batch and blocks until every claimed job has submitted or
// withdrawn; then ONE PredictBatch call scores every candidate of those
// layouts. A slot waiting on an empty source holds no announcement, so it
// never holds up a flush, and a claimed job reaches Do or Forgo without
// waiting on any other job (generation never blocks), so every flush fires.
// Prediction scores are a per-image function of the image alone (see
// model.PredictBatchInto), so the coalesced scores are bitwise what
// per-layout calls would have produced: each job's result is bitwise what
// Flow.RunContext returns for it, at any slot count.
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
	"ldmo/internal/grid"
	"ldmo/internal/layout"
	"ldmo/internal/par"
	"ldmo/internal/runx"
)

// PipelineOptions tunes RunPipelineCtx. The zero value selects the defaults.
type PipelineOptions struct {
	// Workers sizes the scheduler, which runs max(2, Workers) slots so that
	// prediction coalesces across layouts even on a single-core host; 0
	// selects par.Workers(). CPU parallelism stays bounded by GOMAXPROCS.
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
	// Coalesce counts prediction amortization: Flushes is the number of
	// scorer invocations issued, Requests the per-layout prediction
	// requests they served (the serial flow issues one invocation per
	// request), MaxBatch the largest flush.
	Coalesce par.CoalesceStats
	// Images is the total number of candidate images scored.
	Images int
	// Per-stage busy time summed over slots. ScoreWait additionally counts
	// time spent blocked waiting for the claimed jobs to submit; the actual
	// inference time is PredictBusy.
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

	co *par.Coalescer[*layoutRun, struct{}]
	// flush-owned concatenation buffers; only one flush runs at a time.
	imgbuf []*grid.Grid
	outbuf []float64

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
	s.co = par.NewCoalescer[*layoutRun, struct{}](0, s.flushPredict)
	return s
}

// RunStream runs jobs from next on slots goroutines and returns the
// scheduler's statistics once every slot has exited. Each slot calls next
// for its next job as soon as its last one is done; next must be safe for
// concurrent use, may block until a job arrives, and reports false when no
// job will come, at the latest once the context it is passed is done. No
// slot claims once that context, derived from ctx, is done. Each job's
// result is bitwise what job.Flow.RunContext(ctx, job.Layout) returns.
func RunStream(ctx context.Context, slots int, next func(context.Context) (StreamJob, bool)) PipelineStats {
	s := newStream(ctx, next)
	defer s.cancel()
	s.run(max(1, slots), nil)
	return s.stats
}

// RunPipeline is RunPipelineCtx without external cancellation.
func (f *Flow) RunPipeline(ls []layout.Layout, po PipelineOptions) ([]PipeResult, PipelineStats) {
	return f.RunPipelineCtx(context.Background(), ls, po)
}

// RunPipelineCtx runs the flow over every layout on the slot scheduler with
// coalesced prediction. results[i] is bitwise what RunContext(ctx, ls[i])
// returns; see the package comment for the determinism and cancellation
// contracts. Layouts are claimed in index order, and one layout per slot is
// claimed and announced before any slot generates, so the opening wave
// coalesces whatever the goroutine timing.
func (f *Flow) RunPipelineCtx(ctx context.Context, ls []layout.Layout, po PipelineOptions) ([]PipeResult, PipelineStats) {
	w := po.Workers
	if w <= 0 {
		w = par.Workers()
	}
	slots := max(2, w)
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
	var opening []StreamJob
	for len(opening) < slots {
		job, ok := s.claim()
		if !ok {
			break
		}
		opening = append(opening, job)
	}
	s.run(slots, opening)

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

// run starts the slots, slot i with opening[i] already claimed when there is
// one, and waits for all of them to exit.
func (s *stream) run(slots int, opening []StreamJob) {
	s.stats.Workers = slots
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < slots; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var job StreamJob
			ok := i < len(opening)
			if ok {
				job = opening[i]
			} else {
				job, ok = s.claim()
			}
			for ; ok; job, ok = s.claim() {
				s.runJob(job)
			}
		}()
	}
	wg.Wait()
	s.stats.Wall = time.Since(start)
	s.stats.Coalesce = s.co.Stats()
}

// claim takes the next job from the source and announces it to the
// coalescer, unless the pipeline context is done.
func (s *stream) claim() (StreamJob, bool) {
	if s.ctx.Err() != nil {
		return StreamJob{}, false
	}
	job, ok := s.next(s.ctx)
	if ok {
		s.co.Expect(1)
	}
	return job, ok
}

// runJob carries one claimed job through generate -> (coalesced) score ->
// optimize and hands the result to its callback. Every claimed job resolves
// its announcement, by Do or Forgo, without waiting on any other job — that
// invariant is what keeps flushes firing.
func (s *stream) runJob(job StreamJob) {
	t0 := time.Now()
	lr, err := job.Flow.generate(job.Layout)
	s.addBusy(&s.stats.GenBusy, time.Since(t0))
	if err != nil {
		s.co.Forgo()
		s.finish(job, PipeResult{Err: err})
		return
	}
	if lr.imgs == nil {
		// No prediction for this layout (nil scorer or a single candidate);
		// withdraw so the claimed jobs' flush is not held up.
		s.co.Forgo()
	} else {
		t1 := time.Now()
		_, serr := s.co.Do(lr)
		s.addBusy(&s.stats.ScoreWait, time.Since(t1))
		lr.applyScores(lr.scores, serr)
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

// flushPredict services one coalesced batch: concatenate every claimed
// layout's candidate images, score them with a single call to the run's
// shared scorer behind the same panic-recovery boundary the serial flow
// uses, and hand each layout its slice of the scores. Runs on the
// last-arriving producer's goroutine; the coalescer guarantees a single
// flush at a time, so the concat buffers are reused flush to flush.
func (s *stream) flushPredict(reqs []*layoutRun, _ []struct{}) error {
	t0 := time.Now()
	defer func() { s.addBusy(&s.stats.PredictBusy, time.Since(t0)) }()

	total := 0
	for _, lr := range reqs {
		total += len(lr.imgs)
	}
	s.imgbuf = s.imgbuf[:0]
	for _, lr := range reqs {
		s.imgbuf = append(s.imgbuf, lr.imgs...)
	}
	if cap(s.outbuf) < total {
		s.outbuf = make([]float64, total)
	}
	out := s.outbuf[:total]
	s.mu.Lock()
	s.stats.Images += total
	s.mu.Unlock()

	err := runx.Recover(func() error {
		if faultinject.Enabled(faultinject.ScorerPanic) {
			panic("faultinject: scorer panic")
		}
		predictInto(reqs[0].f.scorer, s.imgbuf, out)
		return nil
	})
	if err != nil {
		// The whole batch degrades to rung 1, exactly as each layout's own
		// PredictBatch call would have (the fault is sticky / systemic).
		return err
	}
	off := 0
	for _, lr := range reqs {
		lr.scores = make([]float64, len(lr.imgs))
		copy(lr.scores, out[off:off+len(lr.imgs)])
		off += len(lr.imgs)
	}
	return nil
}

// batchIntoScorer is the allocation-free scoring fast path implemented by
// *model.Predictor.
type batchIntoScorer interface {
	PredictBatchInto(imgs []*grid.Grid, out []float64)
}

// predictInto scores imgs into out, using the scorer's Into variant when it
// has one.
func predictInto(sc Scorer, imgs []*grid.Grid, out []float64) {
	if bi, ok := sc.(batchIntoScorer); ok {
		bi.PredictBatchInto(imgs, out)
		return
	}
	copy(out, sc.PredictBatch(imgs))
}

// addBusy accumulates a stage duration under the scheduler lock.
func (s *stream) addBusy(d *time.Duration, dt time.Duration) {
	s.mu.Lock()
	*d += dt
	s.mu.Unlock()
}
