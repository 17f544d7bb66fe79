package ilt

import (
	"math"

	"ldmo/internal/epe"
	"ldmo/internal/faultinject"
	"ldmo/internal/grid"
	"ldmo/internal/litho"
)

// Session is an incremental ILT run: the optimizer state of one
// decomposition that can be stepped a few iterations at a time and evaluated
// between steps. The greedy-pruning baseline uses sessions to prune
// candidates on warm intermediate states exactly as the ICCAD'17 flow does;
// Optimizer.Run is itself implemented on top of a session.
//
// The two masks' litho chains are independent until Eq. 3 composes them, so
// each runs as one lane of the optimizer's pool on that mask's own
// simulator: the forward pass (Eq. 1 sigmoid, aerial image, Eq. 2 resist)
// and the backward pass with its parameter update. Composition, loss, EPE
// and dL/dT stay on the caller between the two fan-outs. Every lane writes
// only its own mask's buffers, so results are bit-identical at any worker
// count.
//
// A parameter state is simulated once: Snapshot leaves its images current,
// and the next Step iteration starts from them instead of repeating the
// forward pass.
//
// Sessions of the same Optimizer share its simulators' scratch buffers, so
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
	gradI    [2][]float64
	gradM    [2][]float64
	gradBad  [2]bool // lane i's gradient was non-finite

	// current reports that the image buffers hold the forward pass of the
	// current parameters p; any change to p clears it.
	current bool
	// forwardLane and backwardLane are the per-mask lane bodies, bound once
	// so a fan-out allocates no closure.
	forwardLane, backwardLane func(worker, i int)

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
}

// maxNaNRetries bounds rollback-and-halve recovery attempts per run; a run
// still non-finite after this many is declared divergent and fails cleanly.
const maxNaNRetries = 3

// NewSession initializes optimizer state for decomposition d.
func (o *Optimizer) NewSession(d interface {
	Masks(res int) (*grid.Grid, *grid.Grid)
}) *Session {
	n := o.target.W * o.target.H
	s := &Session{
		o:        o,
		composed: grid.NewLike(o.target),
		sat:      make([]bool, n),
		gradT:    make([]float64, n),
		// The trace grows by one row per iteration; reserving the full
		// budget up front keeps the steady-state Step loop append-free.
		trace: make([]IterStat, 0, o.cfg.MaxIters+1),
	}
	for i := 0; i < 2; i++ {
		s.p[i] = make([]float64, n)
		s.m[i] = make([]float64, n)
		s.aerial[i] = make([]float64, n)
		s.resist[i] = make([]float64, n)
		s.fields[i] = o.sims[i].NewFields()
		s.gradI[i] = make([]float64, n)
		s.gradM[i] = make([]float64, n)
		s.snapP[i] = make([]float64, n)
	}
	s.forwardLane = s.forwardMask
	s.backwardLane = s.backwardMask
	s.reset(d)
	return s
}

// reset re-derives the session's optimizer state for decomposition d without
// allocating: every buffer of the session is reused, so a recycled session is
// exactly as cheap as restarting on warm memory. The resulting state is
// bitwise-identical to a freshly constructed session's — the start is a pure
// function of d and the optimizer config.
func (s *Session) reset(d interface {
	Masks(res int) (*grid.Grid, *grid.Grid)
}) {
	o := s.o
	m1g, m2g := d.Masks(o.cfg.Litho.Resolution)
	s.iter = 0
	s.current = false
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
	clip := o.cfg.InitClip
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

// forward evaluates the current masks into the session's image buffers,
// keeping the per-kernel fields a backward pass needs, and marks them
// current.
func (s *Session) forward() {
	s.o.lanes.Map(2, s.forwardLane)
	litho.ComposeDouble(s.resist[0], s.resist[1], s.composed.Data, s.sat)
	s.current = true
}

// forwardMask is mask i's forward lane: Eq. 1, the aerial image and Eq. 2.
func (s *Session) forwardMask(_, i int) {
	sim := s.o.sims[i]
	litho.MaskSigmoid(s.o.cfg.Litho.ThetaM, s.p[i], s.m[i])
	sim.Aerial(s.m[i], s.aerial[i], s.fields[i])
	sim.Resist(s.aerial[i], s.resist[i])
}

// backwardMask is mask i's backward lane: dL/dT through the resist and the
// aerial adjoint to dL/dM, then the gradient step on P through Eq. 1. A
// non-finite gradient leaves the parameters untouched and is reported in
// gradBad for the caller to latch once both lanes are done.
func (s *Session) backwardMask(_, i int) {
	sim := s.o.sims[i]
	sim.ResistBackward(s.gradT, s.resist[i], s.gradI[i])
	sim.AerialBackward(s.gradI[i], s.fields[i], s.gradM[i])
	s.gradBad[i] = !litho.MaskSigmoidStep(s.o.cfg.Litho.ThetaM, s.o.cfg.StepSize*s.stepScale,
		s.gradM[i], s.m[i], s.p[i])
}

// Step performs n gradient iterations (not exceeding the configured budget)
// and appends to the trace. It returns the iterations actually performed.
// A non-finite loss or gradient latches the fault flag and halts stepping
// immediately — before the poisoned update can reach the mask parameters'
// snapshot — leaving recovery (rollback with a halved step) to the caller.
func (s *Session) Step(n int) int {
	done := 0
	for ; done < n && s.iter < s.o.cfg.MaxIters && !s.fault; done++ {
		if !s.current {
			s.forward()
		}
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

		litho.ComposeDoubleBackward(s.composed.Data, s.o.target.Data, s.sat, s.gradT)
		s.o.lanes.Map(2, s.backwardLane)
		s.current = false
		s.fault = s.gradBad[0] || s.gradBad[1]
		s.divergePoint()
	}
	return done
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
	s.current = false
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

// Snapshot evaluates the current masks and returns the full printability
// measurement without advancing the iteration counter. Its forward pass is
// the one the next Step iteration starts from, so a check between chunks
// costs no extra simulation; with the images already current it runs none.
func (s *Session) Snapshot() Result {
	if !s.current {
		s.forward()
	}
	res := Result{Iters: s.iter, NaNRecoveries: s.nanRetries, Trace: append([]IterStat(nil), s.trace...)}
	res.L2 = s.composed.L2Diff(s.o.target)
	res.EPE = s.o.cfg.Meter.Measure(s.composed, s.o.cps)
	res.Violations = epe.CheckPrintViolations(s.composed, s.o.layout.Patterns, s.o.cfg.Litho.PrintThreshold)
	res.Trace = append(res.Trace, IterStat{Iter: s.iter + 1, L2: res.L2, EPEViolations: res.EPE.Violations})
	s.o.finalize(&res, s.m, s.composed)
	return res
}
