// Package ilt implements the paper's mask-optimization engine (§III-C):
// gradient-descent inverse lithography over the two double-patterning masks,
// with the sigmoid mask/resist relaxations of Eq. 1-3, per-iteration
// printability traces, and the every-third-iteration print-violation check
// that sends the flow back to decomposition selection.
package ilt

import (
	"context"
	"fmt"

	"ldmo/internal/decomp"
	"ldmo/internal/epe"
	"ldmo/internal/grid"
	"ldmo/internal/layout"
	"ldmo/internal/litho"
	"ldmo/internal/par"
	"ldmo/internal/simclock"
)

// Config collects the optimizer settings. Zero values are replaced by the
// paper's constants via Normalize.
type Config struct {
	// MaxIters is the gradient-descent iteration budget (paper: 29).
	MaxIters int
	// CheckEvery is the print-violation check period (paper: 3).
	CheckEvery int
	// StepSize is the gradient-descent step on the unbounded parameter P.
	StepSize float64
	// InitClip keeps the initial mask away from the sigmoid's saturated
	// tails so gradients can move it; the rasterized binary decomposition
	// is clamped into [InitClip, 1-InitClip] before inversion.
	InitClip float64
	// AbortOnViolation stops the run as soon as the periodic check finds a
	// print violation (bridge / missing / spurious pattern). The flow then
	// falls back to the next decomposition candidate. When false the run
	// always uses the full budget — needed for forced best-effort runs.
	AbortOnViolation bool
	// CheckpointSpacing is the EPE checkpoint pitch in nm (paper-style 40).
	CheckpointSpacing int
	// Litho is the process model.
	Litho litho.Params
	// Meter measures EPE.
	Meter epe.Meter
}

// DefaultConfig returns the paper's optimizer settings over the calibrated
// default process.
func DefaultConfig() Config {
	return Config{
		MaxIters:          29,
		CheckEvery:        3,
		StepSize:          2.0,
		InitClip:          0.02,
		AbortOnViolation:  true,
		CheckpointSpacing: 40,
		Litho:             litho.DefaultParams(),
		Meter:             epe.NewMeter(),
	}
}

// Normalize fills unset fields with the defaults.
func (c Config) Normalize() Config {
	d := DefaultConfig()
	if c.MaxIters <= 0 {
		c.MaxIters = d.MaxIters
	}
	if c.CheckEvery <= 0 {
		c.CheckEvery = d.CheckEvery
	}
	if c.StepSize <= 0 {
		c.StepSize = d.StepSize
	}
	if c.InitClip <= 0 || c.InitClip >= 0.5 {
		c.InitClip = d.InitClip
	}
	if c.CheckpointSpacing <= 0 {
		c.CheckpointSpacing = d.CheckpointSpacing
	}
	if c.Litho.Resolution == 0 {
		c.Litho = d.Litho
	}
	if c.Meter.SearchRange == 0 {
		c.Meter = d.Meter
	}
	return c
}

// IterStat is one row of the convergence trace (the data behind Fig. 1(b)).
type IterStat struct {
	Iter          int
	L2            float64
	EPEViolations int
}

// Result is the outcome of one ILT run.
type Result struct {
	// M1, M2 are the final continuous masks; Printed is the composed
	// double-patterning resist image.
	M1, M2, Printed *grid.Grid
	// L2 is the final squared image error against the target.
	L2 float64
	// EPE is the final edge-placement measurement.
	EPE epe.Result
	// Violations is the final print-violation summary.
	Violations epe.Violations
	// Aborted reports that the periodic check tripped; AbortIter is the
	// iteration at which it did.
	Aborted   bool
	AbortIter int
	// Interrupted reports that cancellation or a deadline cut the run
	// short; the result then carries the best state reached at a
	// violation-check boundary (or the initial state when the run never
	// reached one), not a discarded run.
	Interrupted bool
	// NumericalFault reports that the run produced NaN/Inf in its loss or
	// gradient and the bounded rollback-and-halve recovery was exhausted;
	// the result carries the last finite state and is also tagged Aborted,
	// so the flow falls through to the next candidate. NaNRecoveries counts
	// the rollbacks that did succeed (non-zero on a run that recovered).
	NumericalFault bool
	NaNRecoveries  int
	// Iters is the number of gradient steps actually performed.
	Iters int
	// Trace records per-iteration statistics.
	Trace []IterStat
}

// Score aggregates the result into the paper's Eq. 9 selection score with
// the given weights (alpha*L2 + beta*EPE# + gamma*Violation#).
func (r Result) Score(alpha, beta, gamma float64) float64 {
	return alpha*r.L2 + beta*float64(r.EPE.Violations) + gamma*float64(r.Violations.Total())
}

// Optimizer runs ILT for decompositions of one fixed layout.
type Optimizer struct {
	cfg      Config
	maxIters int // configured budget, restorable after SetMaxIters
	layout   layout.Layout
	// sims holds one serial simulator per mask, so each mask's litho chain
	// runs as its own lane of the lanes pool. Both share the cached kernel
	// bank, plan and kernel spectra; each owns only its scratch.
	sims   [2]*litho.Simulator
	lanes  *par.Pool
	target *grid.Grid
	cps    []epe.Checkpoint
	clock  *simclock.Clock
	spare  *Session // recycled between RunCtx calls; see session()
}

// NewOptimizer builds an optimizer for the layout under the given config.
func NewOptimizer(l layout.Layout, cfg Config) (*Optimizer, error) {
	cfg = cfg.Normalize()
	if len(l.Patterns) == 0 {
		return nil, fmt.Errorf("ilt: layout %q has no patterns", l.Name)
	}
	res := cfg.Litho.Resolution
	w := l.Window.W() / res
	h := l.Window.H() / res
	if w <= 0 || h <= 0 {
		return nil, fmt.Errorf("ilt: window %v too small for resolution %d", l.Window, res)
	}
	var sims [2]*litho.Simulator
	for i := range sims {
		sim, err := litho.NewSimulator(w, h, cfg.Litho)
		if err != nil {
			return nil, err
		}
		sims[i] = sim
	}
	return &Optimizer{
		cfg:      cfg,
		maxIters: cfg.MaxIters,
		layout:   l,
		sims:     sims,
		lanes:    par.NewPool(min(par.Workers(), len(sims))),
		target:   l.Rasterize(res),
		cps:      epe.GenerateCheckpoints(l.Patterns, cfg.CheckpointSpacing),
	}, nil
}

// SetClock attaches deterministic cost accounting to the optimizer's
// simulators.
func (o *Optimizer) SetClock(c *simclock.Clock) {
	o.clock = c
	for _, sim := range o.sims {
		sim.SetClock(c)
	}
}

// Config returns the normalized configuration in use.
func (o *Optimizer) Config() Config { return o.cfg }

// SetAbortOnViolation toggles the periodic print-violation abort on the
// existing optimizer. The flow's forced best-effort rerun uses this to reuse
// the optimizer — and with it the derived kernel bank and kernel FFTs —
// instead of rebuilding a second one.
func (o *Optimizer) SetAbortOnViolation(abort bool) { o.cfg.AbortOnViolation = abort }

// SetMaxIters overrides the iteration budget on the existing optimizer;
// n <= 0 restores the configured value. The flow applies per-candidate
// iteration budgets this way so the kernel bank is built once.
func (o *Optimizer) SetMaxIters(n int) {
	if n <= 0 {
		n = o.maxIters
	}
	o.cfg.MaxIters = n
}

// session acquires an initialized session for d: the recycled spare when one
// is available, a fresh allocation otherwise. A Result shares no memory with
// the session that produced it (Snapshot copies masks and trace), so RunCtx
// recycles its session on return and a flow's per-candidate runs reuse one
// buffer set. Reset state is bitwise-identical to a fresh session's.
func (o *Optimizer) session(d decomp.Decomposition) *Session {
	if s := o.spare; s != nil {
		o.spare = nil
		s.reset(d)
		return s
	}
	return o.NewSession(d)
}

// Run optimizes the masks of decomposition d: gradient steps in CheckEvery
// chunks with a print-violation snapshot between chunks (the Fig. 2 feedback
// check). See Result for outputs. Run is RunCtx without cancellation.
func (o *Optimizer) Run(d decomp.Decomposition) Result {
	return o.RunCtx(context.Background(), d)
}

// RunCtx is Run with cooperative cancellation: between violation-check
// chunks it polls ctx, and — only when ctx is cancellable — snapshots the
// best state seen so far at each check boundary. On cancellation or
// deadline it returns that best-so-far snapshot tagged Interrupted instead
// of discarding the run, so a budgeted caller always gets usable masks.
//
// With a non-cancellable context (Done() == nil, e.g. context.Background()),
// RunCtx performs no extra snapshots and is step-for-step identical to the
// historical Run, including its deterministic cost accounting.
func (o *Optimizer) RunCtx(ctx context.Context, d decomp.Decomposition) Result {
	s := o.session(d)
	defer func() { o.spare = s }()
	track := ctx != nil && ctx.Done() != nil
	var best Result
	hasBest := false
	// keep retains the better of two check-boundary snapshots: fewer print
	// violations first, then lower L2.
	keep := func(snap Result) {
		if !hasBest ||
			snap.Violations.Total() < best.Violations.Total() ||
			(snap.Violations.Total() == best.Violations.Total() && snap.L2 < best.L2) {
			best = snap
			hasBest = true
		}
	}
	interrupted := func() Result {
		if !hasBest {
			// Cancelled before the first check boundary: the initial (or
			// current) state is all there is — still a usable mask pair.
			best = s.Snapshot()
		}
		best.Interrupted = true
		return best
	}
	for s.Remaining() > 0 {
		if track && ctx.Err() != nil {
			return interrupted()
		}
		n := o.cfg.CheckEvery
		if r := s.Remaining(); n > r {
			n = r
		}
		s.Step(n)
		if s.Faulted() {
			// NaN/Inf escaped into the loss or gradient. Roll back to the
			// last violation-check snapshot with a halved step and retry;
			// once the bounded retries are spent, fail the candidate
			// cleanly: Aborted sends the flow to its next candidate, and
			// the returned masks are the last finite state.
			if s.recover() {
				continue
			}
			snap := s.Snapshot()
			snap.Aborted = true
			snap.NumericalFault = true
			snap.AbortIter = s.Iter()
			return snap
		}
		s.markGood()
		if s.Remaining() > 0 && (o.cfg.AbortOnViolation || track) {
			snap := s.Snapshot()
			if o.cfg.AbortOnViolation && snap.Violations.Any() {
				snap.Aborted = true
				snap.AbortIter = s.Iter()
				return snap
			}
			if track {
				keep(snap)
			}
		}
	}
	// A deadline expiring during the final chunk is moot: the run
	// completed, so the full result is returned untagged.
	return s.Snapshot()
}

// finalize copies the working buffers into result grids.
func (o *Optimizer) finalize(res *Result, m [2][]float64, composed *grid.Grid) {
	res.M1 = grid.NewLike(o.target)
	copy(res.M1.Data, m[0])
	res.M2 = grid.NewLike(o.target)
	copy(res.M2.Data, m[1])
	res.Printed = composed.Clone()
}
