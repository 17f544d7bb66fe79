package ilt

import (
	"context"
	"math"
	"reflect"
	"testing"

	"ldmo/internal/decomp"
	"ldmo/internal/layout"
	"ldmo/internal/litho"
	"ldmo/internal/par"
	"ldmo/internal/simclock"
)

// laneCase is one way the flow drives an optimizer: a config and the
// context its runs get.
type laneCase struct {
	name string
	cfg  Config
	ctx  context.Context
}

// laneCases returns the three run shapes of the flow on AOI211_X1's first
// candidates: an abort-on run, a forced full-budget run, and a run under a
// cancellable (never cancelled) context, which snapshots every check.
func laneCases(t *testing.T) (layout.Layout, []decomp.Decomposition, []laneCase) {
	t.Helper()
	cell, err := layout.Cell("AOI211_X1")
	if err != nil {
		t.Fatal(err)
	}
	cands, err := optimizerCandidates(cell)
	if err != nil {
		t.Fatal(err)
	}
	abort := fastConfig()
	abort.MaxIters = 12
	forced := abort
	forced.AbortOnViolation = false

	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	return cell, cands, []laneCase{
		{"abort", abort, context.Background()},
		{"forced", forced, context.Background()},
		{"cancellable", forced, ctx},
	}
}

// laneRun is what one case produced on one candidate.
type laneRun struct {
	res   Result
	convs int64
}

// runLaneCase runs every candidate through one optimizer built with the
// given LDMO_WORKERS, each run on a fresh clock.
func runLaneCase(t *testing.T, l layout.Layout, cands []decomp.Decomposition, c laneCase, workers string) []laneRun {
	t.Helper()
	t.Setenv(par.EnvWorkers, workers)
	opt, err := NewOptimizer(l, c.cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := opt.lanes.Size(), min(par.Workers(), 2); got != want {
		t.Fatalf("LDMO_WORKERS=%s: %d mask lanes, want %d", workers, got, want)
	}
	runs := make([]laneRun, len(cands))
	for i, d := range cands {
		clk := simclock.New(simclock.DefaultModel())
		opt.SetClock(clk)
		runs[i] = laneRun{opt.RunCtx(c.ctx, d), clk.Count(simclock.CostConvolution)}
	}
	return runs
}

// TestMaskLanesBitIdentical: running the two masks' litho chains as two
// lanes gives, bit for bit, what the serial loop gives — masks, printed
// image, L2, trace, verdicts and cost-model counts — on every run shape.
func TestMaskLanesBitIdentical(t *testing.T) {
	l, cands, cases := laneCases(t)
	for _, c := range cases {
		serial := runLaneCase(t, l, cands, c, "1")
		lanes := runLaneCase(t, l, cands, c, "2")
		for i := range cands {
			a, b := serial[i].res, lanes[i].res
			if !bitsEqual(a.M1.Data, b.M1.Data) || !bitsEqual(a.M2.Data, b.M2.Data) || !bitsEqual(a.Printed.Data, b.Printed.Data) {
				t.Fatalf("%s cand %d: masks or printed image differ between 1 and 2 lanes", c.name, i)
			}
			if math.Float64bits(a.L2) != math.Float64bits(b.L2) {
				t.Fatalf("%s cand %d: L2 %v with 1 lane, %v with 2", c.name, i, a.L2, b.L2)
			}
			a.M1, a.M2, a.Printed, b.M1, b.M2, b.Printed = nil, nil, nil, nil, nil, nil
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("%s cand %d: results differ between 1 and 2 lanes:\n%+v\n%+v", c.name, i, a, b)
			}
			if serial[i].convs != lanes[i].convs {
				t.Fatalf("%s cand %d: charged %d convolutions with 1 lane, %d with 2",
					c.name, i, serial[i].convs, lanes[i].convs)
			}
		}
	}
}

// TestRunSimulatesEachStateOnce: a run charges one forward pass per
// parameter state it reaches and one backward pass per iteration, K
// convolutions each — K·(4·Iters+2) in all. A passing violation check's
// forward pass is the one the next iteration starts from, not a repeat.
func TestRunSimulatesEachStateOnce(t *testing.T) {
	l, cands, cases := laneCases(t)
	k := int64(len(litho.BuildKernelBank(litho.FastParams())))
	shapes := map[string]bool{}
	for _, c := range cases {
		for i, run := range runLaneCase(t, l, cands, c, "2") {
			r := run.res
			if r.NaNRecoveries != 0 {
				continue
			}
			if want := k * int64(4*r.Iters+2); run.convs != want {
				t.Errorf("%s cand %d: %d iterations charged %d convolutions, want %d", c.name, i, r.Iters, run.convs, want)
			}
			shapes["aborted"] = shapes["aborted"] || r.Aborted
			shapes["full budget"] = shapes["full budget"] || r.Iters == c.cfg.MaxIters
		}
	}
	// The cases must reach each way a run can end, or the count is
	// untested on it.
	for _, s := range []string{"aborted", "full budget"} {
		if !shapes[s] {
			t.Errorf("no case produced a %s run", s)
		}
	}
}
