package ilt

import (
	"math"

	"ldmo/internal/epe"
	"ldmo/internal/faultinject"
	"ldmo/internal/grid"
	"ldmo/internal/litho"
	"ldmo/internal/simclock"
)

// Session is an incremental ILT run: the optimizer state of one
// decomposition that can be stepped a few iterations at a time and evaluated
// between steps. The greedy-pruning baseline uses sessions to prune
// candidates on warm intermediate states exactly as the ICCAD'17 flow does;
// Optimizer.Run is itself implemented on top of a session.
//
// Sessions of the same Optimizer share its simulator scratch buffers, so
// only one session may be stepped at a time (interleaving Step calls across
// sessions is fine; calling Step concurrently is not).
type Session struct {
	o    *Optimizer
	p    [2][]float64
	m    [2][]float64
	iter int

	aerial   [2][]float64
	resist   [2][]float64
	fields   [2]*litho.Fields
	composed *grid.Grid
	sat      []bool
	gradT    []float64
	gradI    []float64
	gradM    []float64

	trace []IterStat

	// NaN-resilience state: snapP holds the mask parameters at the last
	// violation-check boundary (markGood); a non-finite loss or gradient
	// latches fault and halts stepping until restoreGood rolls the session
	// back. stepScale shrinks on every rollback, bounding the retried
	// trajectory away from the divergence.
	snapP        [2][]float64
	snapIter     int
	snapTraceLen int
	stepScale    float64
	nanRetries   int
	fault        bool

	// Warm-start state: warm holds the initializer's predicted fields
	// (lazily allocated on first warm reset, reused after); warmed records
	// that the current run was seeded from them.
	warm   [2][]float64
	warmed bool
}

// maxNaNRetries bounds rollback-and-halve recovery attempts per run; a run
// still non-finite after this many is declared divergent and fails cleanly.
const maxNaNRetries = 3

// NewSession initializes optimizer state for decomposition d.
func (o *Optimizer) NewSession(d interface {
	Masks(res int) (*grid.Grid, *grid.Grid)
}) *Session {
	n := o.sim.W * o.sim.H
	s := &Session{
		o:        o,
		composed: grid.NewLike(o.target),
		sat:      make([]bool, n),
		gradT:    make([]float64, n),
		gradI:    make([]float64, n),
		gradM:    make([]float64, n),
		// The trace grows by one row per iteration; reserving the full
		// budget up front keeps the steady-state Step loop append-free.
		trace: make([]IterStat, 0, o.cfg.MaxIters+1),
	}
	for i := 0; i < 2; i++ {
		s.p[i] = make([]float64, n)
		s.m[i] = make([]float64, n)
		s.aerial[i] = make([]float64, n)
		s.resist[i] = make([]float64, n)
		s.fields[i] = o.sim.NewFields()
		s.snapP[i] = make([]float64, n)
	}
	s.reset(d)
	return s
}

// reset re-derives the session's optimizer state for decomposition d without
// allocating: every buffer of the session is reused, so a recycled session is
// exactly as cheap as restarting on warm memory. The resulting state is
// bitwise-identical to a freshly constructed session's — the initializer is a
// pure function of d and the optimizer config.
func (s *Session) reset(d interface {
	Masks(res int) (*grid.Grid, *grid.Grid)
}) {
	o := s.o
	m1g, m2g := d.Masks(o.cfg.Litho.Resolution)
	s.iter = 0
	// The budget may have grown via SetMaxIters since this session was built.
	if cap(s.trace) < o.cfg.MaxIters+1 {
		s.trace = make([]IterStat, 0, o.cfg.MaxIters+1)
	} else {
		s.trace = s.trace[:0]
	}
	s.snapIter = 0
	s.snapTraceLen = 0
	s.stepScale = 1
	s.nanRetries = 0
	s.fault = false
	masks := [2][]float64{m1g.Data, m2g.Data}
	s.warmed = false
	if o.cfg.Init != nil {
		if s.warm[0] == nil {
			s.warm[0] = make([]float64, len(masks[0]))
			s.warm[1] = make([]float64, len(masks[1]))
		}
		if o.cfg.Init.WarmMasksInto(m1g, m2g, s.warm[0], s.warm[1]) {
			masks = s.warm
			s.warmed = true
			if o.clock != nil {
				// The warm prediction is one CNN inference in the
				// deterministic cost model; the iterations it saves are
				// charged (or rather, not charged) by the simulator.
				o.clock.Charge(simclock.CostCNNInference, 1)
			}
		}
	}
	// A warm continuous field keeps its saturation depth through the wider
	// warmClip band; the binary cold raster still gets InitClip's protection
	// from the sigmoid's dead tails. The step size is tuned for the cold
	// transient — from a near-optimal warm start the full step overshoots
	// and oscillates away the head start, so warmed sessions descend at
	// half scale (the NaN-recovery halving stacks on top as usual).
	clip := o.cfg.InitClip
	if s.warmed {
		clip = warmClip
		s.stepScale = 0.5
	}
	for i := 0; i < 2; i++ {
		// s.m[i] doubles as the clamp scratch; forward overwrites it anyway.
		for j, v := range masks[i] {
			s.m[i][j] = math.Min(math.Max(v, clip), 1-clip)
		}
		litho.MaskSigmoidInverse(o.cfg.Litho.ThetaM, s.m[i], s.p[i])
		copy(s.snapP[i], s.p[i])
	}
}

// Iter returns the number of gradient iterations performed so far.
func (s *Session) Iter() int { return s.iter }

// forward evaluates the current masks into the session's image buffers.
func (s *Session) forward(withFields bool) {
	for i := 0; i < 2; i++ {
		litho.MaskSigmoid(s.o.cfg.Litho.ThetaM, s.p[i], s.m[i])
		f := s.fields[i]
		if !withFields {
			f = nil
		}
		s.o.sim.Aerial(s.m[i], s.aerial[i], f)
		s.o.sim.Resist(s.aerial[i], s.resist[i])
	}
	litho.ComposeDouble(s.resist[0], s.resist[1], s.composed.Data, s.sat)
}

// Step performs n gradient iterations (not exceeding the configured budget)
// and appends to the trace. It returns the iterations actually performed.
// A non-finite loss or gradient latches the fault flag and halts stepping
// immediately — before the poisoned update can reach the mask parameters'
// snapshot — leaving recovery (rollback with a halved step) to the caller.
func (s *Session) Step(n int) int {
	done := 0
	for ; done < n && s.iter < s.o.cfg.MaxIters && !s.fault; done++ {
		s.forward(true)
		s.iter++
		l2 := s.composed.L2Diff(s.o.target)
		if faultinject.FireAt(faultinject.ILTNaN, s.iter) {
			l2 = math.NaN()
		}
		if math.IsNaN(l2) || math.IsInf(l2, 0) {
			s.fault = true
			break
		}
		em := s.o.cfg.Meter.Measure(s.composed, s.o.cps)
		s.trace = append(s.trace, IterStat{Iter: s.iter, L2: l2, EPEViolations: em.Violations})

		for j := range s.gradT {
			if s.sat[j] {
				s.gradT[j] = 0
			} else {
				s.gradT[j] = 2 * (s.composed.Data[j] - s.o.target.Data[j])
			}
		}
		for i := 0; i < 2; i++ {
			s.o.sim.ResistBackward(s.gradT, s.resist[i], s.gradI)
			s.o.sim.AerialBackward(s.gradI, s.fields[i], s.gradM)
			if !finiteSlice(s.gradM) {
				s.fault = true
				break
			}
			tm := s.o.cfg.Litho.ThetaM
			pi := s.p[i]
			mi := s.m[i]
			for j := range pi {
				pi[j] -= s.o.cfg.StepSize * s.stepScale * s.gradM[j] * tm * mi[j] * (1 - mi[j])
			}
		}
		s.divergePoint()
	}
	return done
}

// finiteSlice reports whether xs is free of NaN/Inf.
func finiteSlice(xs []float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// Faulted reports whether the session hit a non-finite loss or gradient and
// is halted pending a rollback.
func (s *Session) Faulted() bool { return s.fault }

// markGood records the current mask parameters as the rollback target; the
// optimizer calls it at every violation-check boundary that passed finite.
func (s *Session) markGood() {
	for i := 0; i < 2; i++ {
		copy(s.snapP[i], s.p[i])
	}
	s.snapIter = s.iter
	s.snapTraceLen = len(s.trace)
}

// restoreGood rewinds the session to the last markGood state — parameters,
// iteration counter and trace — clearing the fault latch.
func (s *Session) restoreGood() {
	for i := 0; i < 2; i++ {
		copy(s.p[i], s.snapP[i])
	}
	s.iter = s.snapIter
	s.trace = s.trace[:s.snapTraceLen]
	s.fault = false
}

// recover attempts one bounded rollback: restore the last good state and
// halve the effective step size. It returns false once the retry budget is
// spent (the state is still restored, so a final Snapshot is finite).
func (s *Session) recover() bool {
	s.restoreGood()
	if s.nanRetries >= maxNaNRetries {
		return false
	}
	s.nanRetries++
	s.stepScale /= 2
	return true
}

// divergePoint is the ilt-diverge fault injection site: when armed and the
// run has reached the configured iteration (default 0), both mask
// parameters are slammed deep into the sigmoid's zero tail, so nothing
// prints and every subsequent violation check reports missing patterns.
// Disarmed cost: one atomic load per iteration.
func (s *Session) divergePoint() {
	if !faultinject.Enabled(faultinject.ILTDiverge) {
		return
	}
	if s.iter < faultinject.ArgInt(faultinject.ILTDiverge, 0) {
		return
	}
	for i := 0; i < 2; i++ {
		for j := range s.p[i] {
			s.p[i][j] = -40
		}
	}
}

// Remaining returns the unused iteration budget.
func (s *Session) Remaining() int { return s.o.cfg.MaxIters - s.iter }

// plateaued reports whether the relative L2 improvement over the trailing
// window iterations of the trace has dropped below tol — the convergence
// signal behind the warm-start early stop. It is a pure read of the trace:
// no forward pass, no cost-model charge.
func (s *Session) plateaued(window int, tol float64) bool {
	n := len(s.trace)
	if n <= window {
		return false
	}
	first := s.trace[n-1-window].L2
	last := s.trace[n-1].L2
	if first <= 0 {
		return true // already at (or below) zero loss: nothing left to gain
	}
	return (first-last)/first < tol
}

// Snapshot evaluates the current masks (one forward pass) and returns the
// full printability measurement without advancing the iteration counter.
func (s *Session) Snapshot() Result {
	s.forward(false)
	res := Result{Iters: s.iter, NaNRecoveries: s.nanRetries, WarmStart: s.warmed, Trace: append([]IterStat(nil), s.trace...)}
	res.L2 = s.composed.L2Diff(s.o.target)
	res.EPE = s.o.cfg.Meter.Measure(s.composed, s.o.cps)
	res.Violations = epe.CheckPrintViolations(s.composed, s.o.layout.Patterns, s.o.cfg.Litho.PrintThreshold)
	res.Trace = append(res.Trace, IterStat{Iter: s.iter + 1, L2: res.L2, EPEViolations: res.EPE.Violations})
	s.o.finalize(&res, s.m, s.composed)
	return res
}
