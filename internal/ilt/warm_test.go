package ilt

import (
	"reflect"
	"testing"

	"ldmo/internal/decomp"
	"ldmo/internal/grid"
	"ldmo/internal/simclock"
)

// fieldInit is a test Initializer that hands out fixed fields (an oracle
// warm start when fed the optimized masks of a previous run).
type fieldInit struct {
	w1, w2 []float64
	ok     bool
	calls  int
}

func (f *fieldInit) WarmMasksInto(c1, c2 *grid.Grid, w1, w2 []float64) bool {
	f.calls++
	if !f.ok {
		return false
	}
	copy(w1, f.w1)
	copy(w2, f.w2)
	return true
}

// coldRun optimizes the first candidate of the two-row layout without any
// warm-start machinery and returns the layout, candidate, and result.
func coldRun(t *testing.T, cfg Config) (Result, decomp.Decomposition) {
	t.Helper()
	l := twoRowLayout()
	cands, err := decomp.NewGenerator().Generate(l)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := NewOptimizer(l, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return opt.Run(cands[0]), cands[0]
}

func TestWarmInitSeedsRun(t *testing.T) {
	cfg := fastConfig()
	cfg.AbortOnViolation = false
	cold, d := coldRun(t, cfg)

	init := &fieldInit{w1: cold.M1.Data, w2: cold.M2.Data, ok: true}
	warmCfg := cfg
	warmCfg.Init = init
	opt, err := NewOptimizer(twoRowLayout(), warmCfg)
	if err != nil {
		t.Fatal(err)
	}
	warm := opt.Run(d)
	if init.calls != 1 {
		t.Fatalf("initializer called %d times, want 1", init.calls)
	}
	if !warm.WarmStart {
		t.Fatal("result not tagged WarmStart")
	}
	if cold.WarmStart {
		t.Fatal("cold result tagged WarmStart")
	}
	// Seeded with the cold run's optimum, iteration 1 must already be close
	// to the cold final loss — below the cold run's first iteration.
	if warm.Trace[0].L2 >= cold.Trace[0].L2 {
		t.Fatalf("warm first-iteration L2 %g not below cold first-iteration L2 %g",
			warm.Trace[0].L2, cold.Trace[0].L2)
	}
	// The InitClip re-projection pulls saturated pixels back into
	// [InitClip, 1-InitClip], so the seeded loss sits somewhat above the
	// cold final loss — but must stay in its neighborhood, nowhere near the
	// cold start.
	if warm.Trace[0].L2 > cold.L2*1.35 {
		t.Fatalf("warm first-iteration L2 %g far from cold final L2 %g", warm.Trace[0].L2, cold.L2)
	}
}

// TestWarmGateOffBitwiseIdentical: the warm-start gate is the Initializer
// itself. A candidate it declines runs the cold path bit for bit — even on a
// session recycled from a warm-seeded run, whose half step scale, warmClip
// band and warm flag the reset must clear.
func TestWarmGateOffBitwiseIdentical(t *testing.T) {
	cfg := fastConfig()
	cfg.AbortOnViolation = false
	cold, d := coldRun(t, cfg)

	init := &fieldInit{w1: cold.M1.Data, w2: cold.M2.Data, ok: true}
	warmCfg := cfg
	warmCfg.Init = init
	opt, err := NewOptimizer(twoRowLayout(), warmCfg)
	if err != nil {
		t.Fatal(err)
	}
	if !opt.Run(d).WarmStart {
		t.Fatal("seeded run not tagged WarmStart")
	}
	init.ok = false
	r := opt.Run(d)
	if init.calls != 2 {
		t.Fatalf("initializer called %d times, want 2", init.calls)
	}
	if !reflect.DeepEqual(r, cold) {
		t.Fatalf("declined warm start diverged from the cold run: L2 %g vs %g, iters %d vs %d, warm %v",
			r.L2, cold.L2, r.Iters, cold.Iters, r.WarmStart)
	}
}

func TestWarmInitRejectedFallsBackCold(t *testing.T) {
	cfg := fastConfig()
	cfg.AbortOnViolation = false
	cold, d := coldRun(t, cfg)

	warmCfg := cfg
	warmCfg.Init = &fieldInit{ok: false}
	opt, err := NewOptimizer(twoRowLayout(), warmCfg)
	if err != nil {
		t.Fatal(err)
	}
	r := opt.Run(d)
	if r.WarmStart {
		t.Fatal("rejected warm init still tagged WarmStart")
	}
	if r.L2 != cold.L2 || r.Iters != cold.Iters {
		t.Fatalf("rejected warm init diverged from cold: L2 %g vs %g", r.L2, cold.L2)
	}
}

func TestConvergeEarlyStop(t *testing.T) {
	cfg := fastConfig()
	cfg.AbortOnViolation = false
	cold, d := coldRun(t, cfg)

	warmCfg := cfg
	warmCfg.Init = &fieldInit{w1: cold.M1.Data, w2: cold.M2.Data, ok: true}
	warmCfg.ConvergeWindow = DefaultConvergeWindow
	opt, err := NewOptimizer(twoRowLayout(), warmCfg)
	if err != nil {
		t.Fatal(err)
	}
	r := opt.Run(d)
	if !r.Converged {
		t.Fatalf("oracle-seeded run did not converge early (iters %d/%d)", r.Iters, cfg.Normalize().MaxIters)
	}
	if r.Iters >= cold.Iters {
		t.Fatalf("early stop saved nothing: %d iters vs cold %d", r.Iters, cold.Iters)
	}
	if r.ConvergeIter != r.Iters {
		t.Fatalf("ConvergeIter %d != Iters %d", r.ConvergeIter, r.Iters)
	}
	if len(r.Trace) != r.Iters+1 {
		t.Fatalf("trace length %d for %d iters", len(r.Trace), r.Iters)
	}
}

func TestConvergeEarlyStopSavesClock(t *testing.T) {
	cfg := fastConfig()
	cfg.AbortOnViolation = false
	l := twoRowLayout()
	cands, err := decomp.NewGenerator().Generate(l)
	if err != nil {
		t.Fatal(err)
	}
	run := func(c Config) (Result, float64) {
		opt, err := NewOptimizer(l, c)
		if err != nil {
			t.Fatal(err)
		}
		clk := simclock.New(simclock.DefaultModel())
		opt.SetClock(clk)
		r := opt.Run(cands[0])
		return r, clk.Seconds()
	}
	cold, coldSec := run(cfg)

	warmCfg := cfg
	warmCfg.Init = &fieldInit{w1: cold.M1.Data, w2: cold.M2.Data, ok: true}
	warmCfg.ConvergeWindow = DefaultConvergeWindow
	warm, warmSec := run(warmCfg)
	if !warm.Converged {
		t.Fatal("warm run did not converge early")
	}
	if warmSec >= coldSec {
		t.Fatalf("warm run cost %.3f model-seconds, cold %.3f — early stop saved nothing", warmSec, coldSec)
	}
}
