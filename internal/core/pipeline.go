// Pipelined flow scheduling: RunPipeline carries many layouts through the
// Fig. 2 flow with the three stages — candidate generation, printability
// prediction, ILT mask optimization — overlapped across layouts instead of
// run layout-at-a-time.
//
// The scheduler admits layouts in fixed-size chunks. Every admitted layout is
// announced to a request-coalescing queue (par.Coalescer); a worker that
// finishes generating a layout submits that layout's whole candidate-image
// batch and blocks until the queue has collected the entire admitted wave,
// at which point ONE PredictBatch call scores every candidate of every
// in-flight layout. Prediction scores are a per-image function of the image
// alone (see model.PredictBatchInto), so the coalesced scores are bitwise
// what per-layout calls would have produced, and per-layout results are
// merged by admission index — the whole pipeline is bitwise-identical to
// running Flow.RunContext serially over the slice, at any worker count.
//
// Cancellation preserves a completed-prefix contract over admission order:
// admitted layouts drain through their remaining stages exactly as a serial
// RunContext under the same cancelled context would (generation and scoring
// are not ctx-gated; the ILT attempt loop is, landing each on rung 3 of the
// degradation ladder with its best attempted state), while layouts never
// admitted are returned untouched, tagged Interrupted with the context's
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

// PipelineOptions tunes the scheduler. The zero value selects the defaults.
type PipelineOptions struct {
	// Workers bounds layout-level parallelism; 0 selects par.Workers(). The
	// scheduler runs max(Workers, Chunk) goroutines so a full admission wave
	// can always assemble (a coalescing wave needs every member claimable at
	// once); actual CPU parallelism stays bounded by GOMAXPROCS.
	Workers int
	// Chunk is the admission wave size — and therefore the coalesced
	// PredictBatch granularity in layouts. 0 selects max(2, Workers), so
	// batching happens even on a single-core host.
	Chunk int
}

// PipeResult pairs one layout's flow outcome with its error, exactly what
// the corresponding serial RunContext call would have returned.
type PipeResult struct {
	Res Result
	Err error
}

// PipelineStats reports the scheduler's measured behavior. Busy durations
// are summed across workers; divide by Wall*Workers for occupancy.
type PipelineStats struct {
	// Workers is the scheduler goroutine count actually run; Chunk the
	// admission wave size; Layouts the input count.
	Workers int
	Chunk   int
	Layouts int
	// Coalesce counts prediction amortization: Flushes is the number of
	// scorer invocations issued, Requests the per-layout prediction
	// requests they served (the serial flow issues one invocation per
	// request), MaxBatch the largest wave.
	Coalesce par.CoalesceStats
	// Images is the total number of candidate images scored.
	Images int
	// Per-stage busy time summed over workers. ScoreWait additionally
	// counts time spent blocked waiting for a wave to assemble; the actual
	// inference time is PredictBusy.
	GenBusy     time.Duration
	PredictBusy time.Duration
	ScoreWait   time.Duration
	OptBusy     time.Duration
	// Wall is the scheduler's total wall-clock time.
	Wall time.Duration
}

// pipeSched is the shared state of one RunPipelineCtx invocation.
type pipeSched struct {
	f       *Flow
	ls      []layout.Layout
	results []PipeResult

	mu       sync.Mutex
	cond     *sync.Cond
	next     int // next unclaimed layout index
	admitted int // indices < admitted are claimable
	resolved int // layouts whose scoring stage has resolved
	chunk    int
	ctx      context.Context // pipeline context: admission gate + layout runs
	cancel   context.CancelFunc
	nDone    int // completed layout runs, for the cancel-after fault point

	co *par.Coalescer[*layoutRun, struct{}]
	// flush-owned concatenation buffers; only one flush runs at a time.
	imgbuf []*grid.Grid
	outbuf []float64

	stats PipelineStats
}

// RunPipeline is RunPipelineCtx without external cancellation.
func (f *Flow) RunPipeline(ls []layout.Layout, po PipelineOptions) ([]PipeResult, PipelineStats) {
	return f.RunPipelineCtx(context.Background(), ls, po)
}

// RunPipelineCtx runs the flow over every layout with pipelined scheduling
// and coalesced prediction. results[i] is bitwise what RunContext(ctx,
// ls[i]) returns; see the package comment for the determinism and
// cancellation contracts.
func (f *Flow) RunPipelineCtx(ctx context.Context, ls []layout.Layout, po PipelineOptions) ([]PipeResult, PipelineStats) {
	if ctx == nil {
		ctx = context.Background()
	}
	w := po.Workers
	if w <= 0 {
		w = par.Workers()
	}
	chunk := po.Chunk
	if chunk <= 0 {
		chunk = max(2, w)
	}
	// A wave only flushes once every member has submitted, so there must be
	// at least one goroutine per wave member to carry it to the queue.
	if w < chunk {
		w = chunk
	}

	s := &pipeSched{
		f:       f,
		ls:      ls,
		results: make([]PipeResult, len(ls)),
		chunk:   chunk,
	}
	s.cond = sync.NewCond(&s.mu)
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
	defer s.cancel()
	s.co = par.NewCoalescer[*layoutRun, struct{}](0, s.flushPredict)
	s.stats.Workers = w
	s.stats.Chunk = chunk
	s.stats.Layouts = len(ls)

	start := time.Now()
	if len(ls) > 0 {
		s.mu.Lock()
		s.admit()
		s.mu.Unlock()

		// Wake claim-waiters when the pipeline context dies so they can
		// observe the closed admission window and exit.
		watchDone := make(chan struct{})
		go func() {
			select {
			case <-s.ctx.Done():
			case <-watchDone:
			}
			s.cond.Broadcast()
		}()

		var wg sync.WaitGroup
		for i := 0; i < w; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				s.work()
			}()
		}
		wg.Wait()
		close(watchDone)
	}

	// Whatever was never admitted was cancelled before any of its work
	// began: no generation, no scoring, no masks — just the tag and cause.
	for i := s.admitted; i < len(ls); i++ {
		s.results[i] = PipeResult{
			Res: Result{Layout: ls[i], Interrupted: true},
			Err: s.ctx.Err(),
		}
	}

	s.stats.Wall = time.Since(start)
	s.stats.Coalesce = s.co.Stats()
	return s.results, s.stats
}

// admit opens the next chunk of layouts for claiming and announces them to
// the coalescer, but only once the previous wave has fully resolved — one
// wave is outstanding at a time, which is what makes a blocked Do always
// eventually flush. Callers hold s.mu.
func (s *pipeSched) admit() {
	if s.resolved < s.admitted || s.admitted >= len(s.ls) {
		return
	}
	if s.ctx.Err() != nil {
		// Cancelled: stop admitting. In-flight layouts drain; the rest are
		// reported untouched by RunPipelineCtx.
		return
	}
	n := min(s.chunk, len(s.ls)-s.admitted)
	s.admitted += n
	s.co.Expect(n)
	s.cond.Broadcast()
}

// work is one scheduler goroutine: claim admitted layouts in index order and
// run each through the flow stages until the admission window closes.
func (s *pipeSched) work() {
	for {
		s.mu.Lock()
		for s.next >= s.admitted && s.admitted < len(s.ls) && s.ctx.Err() == nil {
			s.cond.Wait()
		}
		if s.next >= s.admitted {
			// Nothing claimable and no admission coming: done (all admitted,
			// or cancelled).
			s.mu.Unlock()
			return
		}
		i := s.next
		s.next++
		s.mu.Unlock()
		s.runLayout(i)
	}
}

// resolveScoring marks layout's scoring stage resolved (its Do returned, or
// it withdrew) and, when it was the wave's last, admits the next chunk.
func (s *pipeSched) resolveScoring() {
	s.mu.Lock()
	s.resolved++
	s.admit()
	s.mu.Unlock()
}

// runLayout carries one layout through generate -> (coalesced) score ->
// optimize, storing the PipeResult slot i. Every admitted layout resolves
// its coalescer announcement on every path — that invariant is what keeps
// waves flushing.
func (s *pipeSched) runLayout(i int) {
	t0 := time.Now()
	lr, err := s.f.generate(s.ls[i])
	s.addBusy(&s.stats.GenBusy, time.Since(t0))
	if err != nil {
		s.co.Forgo()
		s.resolveScoring()
		s.results[i] = PipeResult{Err: err}
		s.finishLayout()
		return
	}
	if lr.imgs == nil {
		// No prediction for this layout (nil scorer or a single candidate);
		// withdraw so the wave is not held up.
		s.co.Forgo()
		s.resolveScoring()
	} else {
		t1 := time.Now()
		_, serr := s.co.Do(lr)
		s.resolveScoring()
		s.addBusy(&s.stats.ScoreWait, time.Since(t1))
		lr.applyScores(lr.scores, serr)
	}
	t2 := time.Now()
	lctx, lcancel := s.f.cfg.Budget.Apply(s.ctx)
	res, rerr := lr.optimize(lctx)
	lcancel()
	s.addBusy(&s.stats.OptBusy, time.Since(t2))
	s.results[i] = PipeResult{Res: res, Err: rerr}
	s.finishLayout()
}

// finishLayout counts a completed layout run and services the cancel-after
// fault point: when armed with n, the pipeline cancels its own context once
// n layouts have finished, deterministically exercising the drain path.
func (s *pipeSched) finishLayout() {
	s.mu.Lock()
	s.nDone++
	done := s.nDone
	s.mu.Unlock()
	if n := faultinject.ArgInt(faultinject.CancelAfter, -1); n >= 0 && done >= n {
		s.cancel()
	}
}

// flushPredict services one coalesced wave: concatenate every in-flight
// layout's candidate images, score them with a single call behind the same
// panic-recovery boundary the serial flow uses, and hand each layout its
// slice of the scores. Runs on the last-arriving producer's goroutine; the
// coalescer guarantees a single flush at a time, so the concat buffers are
// reused flush to flush.
func (s *pipeSched) flushPredict(reqs []*layoutRun, _ []struct{}) error {
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
		predictInto(s.f.scorer, s.imgbuf, out)
		return nil
	})
	if err != nil {
		// The whole wave degrades to rung 1, exactly as each layout's own
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
func (s *pipeSched) addBusy(d *time.Duration, dt time.Duration) {
	s.mu.Lock()
	*d += dt
	s.mu.Unlock()
}
