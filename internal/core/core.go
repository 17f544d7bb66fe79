// Package core implements the paper's contribution: the deep-learning-driven
// simultaneous layout decomposition and mask optimization flow of Fig. 2.
//
//	input layout
//	  -> decomposition generation        (MST + n-wise, package decomp)
//	  -> printability prediction         (CNN scores all candidates)
//	  -> ILT mask optimization           (package ilt)
//	  -> print-violation check every 3 iterations; on violation, fall back
//	     to the next-best unused candidate
//	  -> optimized mask pair
//
// Selection costs one CNN inference per candidate instead of the partial
// mask-optimization probes of the ICCAD'17 flow, which is where the paper's
// runtime advantage comes from.
package core

import (
	"context"
	"fmt"
	"sort"

	"ldmo/internal/decomp"
	"ldmo/internal/faultinject"
	"ldmo/internal/grid"
	"ldmo/internal/ilt"
	"ldmo/internal/layout"
	"ldmo/internal/par"
	"ldmo/internal/runx"
	"ldmo/internal/simclock"
)

// Scorer predicts printability scores for decomposition images; lower is
// better. *model.Predictor implements it.
type Scorer interface {
	PredictBatch(imgs []*grid.Grid) []float64
}

// Config parameterizes the flow.
type Config struct {
	// ILT configures mask optimization. AbortOnViolation is forced on for
	// candidate runs (that is the feedback loop of Fig. 2) and off for the
	// final best-effort run when every candidate tripped the check.
	ILT ilt.Config
	// Classify sets the SP/VP/NP bands for candidate generation.
	Classify layout.ClassifyParams
	// Seed drives covering-array construction.
	Seed int64
	// ImageRes and ImageSize control the predictor input rendering.
	ImageRes  int
	ImageSize int
	// MaxAttempts bounds how many candidates are tried before the forced
	// best-effort run; 0 means all candidates.
	MaxAttempts int
	// ClockModel prices the deterministic runtime accounting.
	ClockModel simclock.Model
	// Workers bounds candidate-level parallelism (OracleSelect); 0 selects
	// par.Workers() (GOMAXPROCS, overridable via LDMO_WORKERS), 1 forces the
	// serial path. Results are bit-identical at any worker count.
	Workers int
	// Budget bounds RunContext: total wall deadline, per-candidate wall
	// deadline, and per-candidate iteration cap. The zero value is
	// unlimited and adds no overhead to Run.
	Budget runx.Budget
}

// DefaultConfig returns the paper's flow settings over the calibrated
// process.
func DefaultConfig() Config {
	return Config{
		ILT:        ilt.DefaultConfig(),
		Classify:   layout.DefaultClassifyParams(),
		Seed:       1,
		ImageRes:   4,
		ImageSize:  64,
		ClockModel: simclock.DefaultModel(),
	}
}

// Flow is the reusable LDMO engine.
type Flow struct {
	cfg    Config
	scorer Scorer
}

// NewFlow builds a flow around a trained predictor. A nil scorer degrades
// to the generator's candidate order (useful before a model exists, and as
// the no-predictor ablation).
func NewFlow(scorer Scorer, cfg Config) *Flow {
	if cfg.ImageRes <= 0 {
		cfg.ImageRes = 4
	}
	if cfg.ImageSize <= 0 {
		cfg.ImageSize = 64
	}
	if cfg.Classify.NMin == 0 {
		cfg.Classify = layout.DefaultClassifyParams()
	}
	return &Flow{cfg: cfg, scorer: scorer}
}

// Result is the outcome of one flow run.
type Result struct {
	Layout layout.Layout
	// Chosen is the decomposition the flow committed to.
	Chosen decomp.Decomposition
	// ILT is the final mask-optimization result.
	ILT ilt.Result
	// Candidates is the generated candidate count; Attempts is how many
	// went through ILT (1 when the predictor's first choice survived).
	Candidates int
	Attempts   int
	// Forced reports that every candidate tripped the violation check and
	// the best-predicted one was re-run without aborting.
	Forced bool
	// Interrupted reports that cancellation or a budget deadline cut the
	// run short; Chosen/ILT then carry the best attempted state rather
	// than a converged result.
	Interrupted bool
	// ScorerFallback reports that the predictor failed (panic or error)
	// and the flow degraded to generator candidate order — the same path
	// as the nil-scorer ablation. ScorerErr is the converted failure; a
	// panic surfaces as a *runx.PanicError with the worker stack.
	ScorerFallback bool
	ScorerErr      error
	// PredScores holds the predictor score per candidate, aligned with the
	// generation order.
	PredScores []float64
	// Clock carries the deterministic cost accounting (phases "DS"/"MO");
	// Seconds is its total.
	Clock   *simclock.Clock
	Seconds float64
}

// phase names for the runtime accounting.
const (
	PhaseDS = "DS"
	PhaseMO = "MO"
)

// Run executes the Fig. 2 flow on one layout. It is RunContext without
// cancellation and is step-for-step identical to the historical behavior.
func (f *Flow) Run(l layout.Layout) (Result, error) {
	return f.RunContext(context.Background(), l)
}

// RunContext executes the Fig. 2 flow under a context and the configured
// Budget, degrading instead of crashing. The ladder, from least to most
// severe:
//
//  1. scorer panic or error  -> candidates in generator order (the same
//     path as the nil-scorer ablation); Result.ScorerFallback is set;
//  2. candidate exceeds its per-candidate budget (wall or iterations
//     without a violation-free print) -> fall through to the next
//     candidate, exactly like the paper's violation feedback;
//  3. total budget exhausted / ctx cancelled -> return the best attempted
//     result so far, tagged Interrupted.
//
// An error is returned only when nothing usable was computed (generation
// failed, optimizer construction failed, or cancellation landed before any
// candidate produced masks). With a cancellable context the optimizer
// snapshots best-so-far state between violation checks, which adds forward
// passes to the deterministic cost accounting; with context.Background()
// and a zero Budget there is no extra work of any kind.
func (f *Flow) RunContext(ctx context.Context, l layout.Layout) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, cancel := f.cfg.Budget.Apply(ctx)
	defer cancel()

	lr, err := f.generate(l)
	if err != nil {
		return Result{}, err
	}
	if lr.imgs != nil {
		lr.applyScores(f.predict(lr.imgs))
	}
	return lr.optimize(ctx)
}

// layoutRun carries one layout through the flow's three stages — generate,
// score, optimize. RunContext drives them back to back; the pipelined
// scheduler (pipeline.go) drives the same stages with scoring coalesced
// across in-flight layouts, so both paths run identical per-layout code and
// produce bitwise-identical results.
type layoutRun struct {
	f     *Flow
	l     layout.Layout
	clock *simclock.Clock
	cands []decomp.Decomposition
	order []int
	// imgs holds the rendered candidate images when prediction applies
	// (scorer present, >1 candidate); nil means the scoring stage is a
	// no-op for this layout.
	imgs   []*grid.Grid
	scores []float64
	res    Result
}

// generate is the decomposition-generation stage: enumerate candidates and
// render their predictor input images.
func (f *Flow) generate(l layout.Layout) (*layoutRun, error) {
	clock := simclock.New(f.cfg.ClockModel)
	clock.SetPhase(PhaseDS)

	gen := decomp.NewGenerator()
	gen.Classify = f.cfg.Classify
	gen.Seed = f.cfg.Seed
	gen.Clock = clock
	cands, err := gen.Generate(l)
	if err != nil {
		return nil, err
	}

	lr := &layoutRun{
		f:     f,
		l:     l,
		clock: clock,
		cands: cands,
		res: Result{
			Layout:     l,
			Candidates: len(cands),
			Clock:      clock,
		},
	}
	lr.order = make([]int, len(cands))
	for i := range lr.order {
		lr.order[i] = i
	}
	if f.scorer != nil && len(cands) > 1 {
		lr.imgs = make([]*grid.Grid, len(cands))
		for i, d := range cands {
			lr.imgs[i] = d.GrayImage(f.cfg.ImageRes, f.cfg.ImageSize)
		}
	}
	return lr, nil
}

// predict runs the scorer on a rendered image batch behind the flow's
// panic-recovery boundary. A crash comes back as the error (nil scores), to
// be absorbed by applyScores as rung 1 of the degradation ladder.
func (f *Flow) predict(imgs []*grid.Grid) (scores []float64, err error) {
	err = runx.Recover(func() error {
		if faultinject.Enabled(faultinject.ScorerPanic) {
			panic("faultinject: scorer panic")
		}
		scores = f.scorer.PredictBatch(imgs)
		return nil
	})
	if err != nil {
		scores = nil
	}
	return scores, err
}

// applyScores is the prediction-stage epilogue: sort the candidate order
// ascending by score (lower = better predicted printability), or degrade to
// generator order when the scorer failed — rung 1 of the ladder. The scores
// themselves are a per-image function of the image alone, so it does not
// matter whether they came from a per-layout PredictBatch call or a flush
// coalesced across many layouts.
func (lr *layoutRun) applyScores(scores []float64, serr error) {
	if serr != nil {
		lr.res.ScorerFallback = true
		lr.res.ScorerErr = serr
		scores = nil
	} else {
		lr.clock.Charge(simclock.CostCNNInference, len(lr.cands))
		sort.SliceStable(lr.order, func(a, b int) bool { return scores[lr.order[a]] < scores[lr.order[b]] })
	}
	lr.res.PredScores = scores
	lr.scores = scores
}

// optimize is the mask-optimization stage: ILT with the violation-feedback
// loop over the (scored) candidate order, the degradation ladder of
// RunContext, and the forced best-effort rerun. ctx is polled exactly as the
// historical RunContext did — once at each attempt-loop top, once after an
// interrupted candidate, once after the loop.
func (lr *layoutRun) optimize(ctx context.Context) (Result, error) {
	f := lr.f
	l := lr.l
	clock := lr.clock
	cands := lr.cands
	order := lr.order
	res := lr.res

	iltCfg := f.cfg.ILT
	iltCfg.AbortOnViolation = true
	opt, err := ilt.NewOptimizer(l, iltCfg)
	if err != nil {
		return Result{}, err
	}
	clock.SetPhase(PhaseMO)
	opt.SetClock(clock)
	if f.cfg.Budget.CandidateIters > 0 {
		opt.SetMaxIters(f.cfg.Budget.CandidateIters)
	}

	maxAttempts := f.cfg.MaxAttempts
	if maxAttempts <= 0 || maxAttempts > len(order) {
		maxAttempts = len(order)
	}

	// bestAttempt tracks the most printable result over every attempted
	// candidate — including aborted and interrupted ones — so a budget
	// exhaustion always has something usable to return (rung 3).
	var bestR ilt.Result
	var bestD decomp.Decomposition
	haveBest := false
	keep := func(d decomp.Decomposition, r ilt.Result) {
		if r.M1 == nil {
			return
		}
		if !haveBest ||
			r.Violations.Total() < bestR.Violations.Total() ||
			(r.Violations.Total() == bestR.Violations.Total() && r.L2 < bestR.L2) {
			bestR, bestD, haveBest = r, d, true
		}
	}
	exhausted := func() (Result, error) {
		res.Interrupted = true
		res.Seconds = clock.Seconds()
		if !haveBest {
			return res, fmt.Errorf("core: %q interrupted before any candidate completed: %w",
				l.Name, ctx.Err())
		}
		res.Chosen = bestD
		res.ILT = bestR
		return res, nil
	}

	for attempt := 0; attempt < maxAttempts; attempt++ {
		if ctx.Err() != nil {
			return exhausted()
		}
		d := cands[order[attempt]]
		res.Attempts = attempt + 1
		cctx, ccancel := f.cfg.Budget.Candidate(ctx)
		r := opt.RunCtx(cctx, d)
		ccancel()
		if r.Interrupted {
			keep(d, r)
			if ctx.Err() != nil {
				// The total budget, not just the candidate's, is gone.
				return exhausted()
			}
			// Rung 2a: the candidate overran its own wall budget; its best
			// state is retained as a fallback and the next candidate gets
			// its chance.
			continue
		}
		if r.Aborted {
			keep(d, r)
			continue
		}
		if f.cfg.Budget.CandidateIters > 0 && r.Violations.Any() {
			// Rung 2b: the candidate spent its iteration budget without a
			// violation-free print — treat like a tripped check.
			keep(d, r)
			continue
		}
		res.Chosen = d
		res.ILT = r
		res.Seconds = clock.Seconds()
		return res, nil
	}

	if ctx.Err() != nil {
		return exhausted()
	}

	// Every candidate tripped the print-violation check: force a full run
	// on the best-predicted candidate and report what it achieves. The
	// existing optimizer is reused with the abort toggled off and the full
	// iteration budget restored, so the kernel bank and kernel FFTs are
	// not re-derived. Cancellation mid-rerun still returns the rerun's
	// best-so-far snapshot (rung 3).
	opt.SetAbortOnViolation(false)
	opt.SetMaxIters(0)
	best := cands[order[0]]
	res.Forced = true
	res.Chosen = best
	res.ILT = opt.RunCtx(ctx, best)
	res.Interrupted = res.ILT.Interrupted
	res.Seconds = clock.Seconds()
	return res, nil
}

// RankCandidates exposes the prediction stage alone: the candidates of l in
// predicted-best-first order with their scores.
func (f *Flow) RankCandidates(l layout.Layout) ([]decomp.Decomposition, []float64, error) {
	gen := decomp.NewGenerator()
	gen.Classify = f.cfg.Classify
	gen.Seed = f.cfg.Seed
	cands, err := gen.Generate(l)
	if err != nil {
		return nil, nil, err
	}
	if f.scorer == nil {
		return cands, nil, nil
	}
	imgs := make([]*grid.Grid, len(cands))
	for i, d := range cands {
		imgs[i] = d.GrayImage(f.cfg.ImageRes, f.cfg.ImageSize)
	}
	scores := f.scorer.PredictBatch(imgs)
	order := make([]int, len(cands))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return scores[order[a]] < scores[order[b]] })
	outC := make([]decomp.Decomposition, len(cands))
	outS := make([]float64, len(cands))
	for i, oi := range order {
		outC[i] = cands[oi]
		outS[i] = scores[oi]
	}
	return outC, outS, nil
}

// OracleSelect runs full ILT on every candidate and returns the truly best
// decomposition by Eq. 9 score — the (expensive) selection upper bound the
// predictor approximates. Used by tests and the ablation benches.
//
// Candidates fan out over cfg.Workers lanes, each lane owning its own
// optimizer (Optimizer and its Simulator stay single-goroutine); per-candidate
// results land in generation order and the argmin scan runs serially, so the
// selected decomposition and its result are byte-identical to the serial loop
// at any worker count.
func OracleSelect(l layout.Layout, cfg Config, alpha, beta, gamma float64) (decomp.Decomposition, ilt.Result, error) {
	gen := decomp.NewGenerator()
	gen.Classify = cfg.Classify
	gen.Seed = cfg.Seed
	cands, err := gen.Generate(l)
	if err != nil {
		return decomp.Decomposition{}, ilt.Result{}, err
	}
	if len(cands) == 0 {
		return decomp.Decomposition{}, ilt.Result{}, fmt.Errorf("core: no candidates for %q", l.Name)
	}
	iltCfg := cfg.ILT
	iltCfg.AbortOnViolation = false
	pool := par.NewPool(cfg.Workers)
	lanes := min(pool.Size(), len(cands))
	opts := make([]*ilt.Optimizer, lanes)
	for i := range opts {
		if opts[i], err = ilt.NewOptimizer(l, iltCfg); err != nil {
			return decomp.Decomposition{}, ilt.Result{}, err
		}
	}
	results := par.MapSlice(pool, len(cands), func(worker, i int) ilt.Result {
		return opts[worker].Run(cands[i])
	})
	bestIdx := -1
	var bestRes ilt.Result
	bestScore := 0.0
	for i, r := range results {
		s := r.Score(alpha, beta, gamma)
		if bestIdx < 0 || s < bestScore {
			bestIdx, bestRes, bestScore = i, r, s
		}
	}
	return cands[bestIdx], bestRes, nil
}
