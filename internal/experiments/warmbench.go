package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"ldmo/internal/decomp"
	"ldmo/internal/ilt"
	"ldmo/internal/layout"
	"ldmo/internal/model"
	"ldmo/internal/sampling"
	"ldmo/internal/simclock"
)

// WarmCellBench is one library cell's cold-vs-warm ILT comparison inside
// BENCH_warmstart.json. Both runs use the same convergence early-stop
// settings; the only difference is the learned initializer, so every delta is
// attributable to the warm start.
type WarmCellBench struct {
	Cell string `json:"cell"`
	// ItersCold/ItersWarm are gradient iterations to convergence (or to the
	// iteration budget when the run never plateaus — Converged says which).
	ItersCold     int  `json:"iters_cold"`
	ItersWarm     int  `json:"iters_warm"`
	ConvergedCold bool `json:"converged_cold"`
	ConvergedWarm bool `json:"converged_warm"`
	// Wall-clock seconds for the ILT run (the warm number includes surrogate
	// inference) and deterministic simclock model-seconds for the same.
	WallColdSec float64 `json:"wall_cold_sec"`
	WallWarmSec float64 `json:"wall_warm_sec"`
	SimColdSec  float64 `json:"sim_cold_sec"`
	SimWarmSec  float64 `json:"sim_warm_sec"`
	// Final printability verdicts of both runs.
	EPECold  int     `json:"epe_cold"`
	EPEWarm  int     `json:"epe_warm"`
	ViolCold int     `json:"viol_cold"`
	ViolWarm int     `json:"viol_warm"`
	L2Cold   float64 `json:"l2_cold"`
	L2Warm   float64 `json:"l2_warm"`
	// L2Cold0/L2Warm0 are the trajectories' starting L2 (trace[0]): how much
	// closer to printable the learned initialization begins.
	L2Cold0 float64 `json:"l2_cold0"`
	L2Warm0 float64 `json:"l2_warm0"`
	// VerdictParity: the warm run's discrete verdicts (EPE and print-check
	// violation counts) match the cold run's — warm-starting saved iterations
	// without changing what the flow would decide about this cell.
	VerdictParity bool `json:"verdict_parity"`
}

// WarmBench is the machine-readable record cmd/ldmo-bench writes to
// BENCH_warmstart.json: a warm-start surrogate is trained from scratch on
// harvested (cold mask, optimized field) pairs, then every eval cell runs
// ILT cold and warm under identical early-stop settings.
type WarmBench struct {
	// Harvest/training provenance.
	TrainLayouts int    `json:"train_layouts"`
	TrainPairs   int    `json:"train_pairs"`
	TrainSamples int    `json:"train_samples"` // after dihedral augmentation
	TrainEpochs  int    `json:"train_epochs"`
	NetDigest    string `json:"net_digest"`
	// Early-stop settings shared by the cold and warm runs.
	Window int     `json:"window"`
	Tol    float64 `json:"tol"`

	Cells []WarmCellBench `json:"cells"`

	// Aggregates over the eval cells.
	ItersColdTotal int `json:"iters_cold_total"`
	ItersWarmTotal int `json:"iters_warm_total"`
	// IterReduction = 1 - warm/cold iterations: the headline latency win.
	IterReduction float64 `json:"iter_reduction"`
	WallReduction float64 `json:"wall_reduction"`
	SimReduction  float64 `json:"sim_reduction"`
	// EPEDelta is total warm minus cold EPE violations (<=0 means the warm
	// masks print no worse).
	EPEDelta int `json:"epe_delta"`
	// VerdictParity aggregates the per-cell flags.
	VerdictParity bool `json:"verdict_parity"`
	// Pass is the acceptance verdict: >=30% iteration reduction, model time
	// reduced, and EPE no worse.
	Pass bool `json:"pass"`
}

// warmEvalCells picks the library cells the bench evaluates on. Training
// pairs come from generated layouts only, so every eval cell is unseen.
func warmEvalCells(fast bool) []string {
	if fast {
		return []string{"INV_X1", "NAND3_X2", "AOI211_X1"}
	}
	out := make([]string, 0, 13)
	for _, c := range layout.Cells() {
		out = append(out, c.Name)
	}
	return out
}

// RunWarmBench measures the learned ILT warm-start end to end: harvest
// training pairs, train the surrogate, then compare cold and warm ILT on
// unseen library cells under identical convergence settings.
func RunWarmBench(o Options) (WarmBench, error) {
	out := WarmBench{
		Window: ilt.DefaultConvergeWindow,
		Tol:    ilt.ConvergeTol,
	}

	// Harvest: generated layouts through the dataset factory's labeling path.
	pool, err := o.Pool()
	if err != nil {
		return out, err
	}
	// Harvesting is cheap (generated layouts are small and one fast ILT run
	// takes well under a second); training compute is the budget, so the
	// harvest size is the same in both modes.
	nTrain := 48
	if nTrain > len(pool) {
		nTrain = len(pool)
	}
	out.TrainLayouts = nTrain
	o.logf("warmbench: harvesting pairs from %d layouts\n", nTrain)
	ds, err := sampling.BuildWarmPairsCtx(o.context(), pool[:nTrain], o.samplingConfig(), sampling.WarmPairConfig{}, o.Log)
	if err != nil {
		return out, err
	}
	out.TrainPairs = ds.Len()
	aug := ds.Augmented()
	out.TrainSamples = aug.Len()

	// Train the surrogate from scratch.
	wcfg := model.DefaultWarmConfig()
	wcfg.Seed = o.Seed
	ws, err := model.NewWarmStarter(wcfg)
	if err != nil {
		return out, err
	}
	wtc := model.DefaultWarmTrainConfig()
	wtc.Seed = o.Seed
	wtc.Log = o.Log
	if o.Fast {
		wtc.Epochs = 30
	}
	out.TrainEpochs = wtc.Epochs
	if _, err := ws.TrainCtx(o.context(), aug, wtc); err != nil {
		return out, err
	}
	out.NetDigest = ws.Digest()

	// Evaluate on unseen library cells: first decomposition candidate of
	// each, cold vs warm under identical early-stop settings.
	base := o.iltConfig()
	base.AbortOnViolation = false
	base.ConvergeWindow = out.Window
	warmCfg := base
	warmCfg.Init = ws

	run := func(l layout.Layout, d decomp.Decomposition, cfg ilt.Config) (ilt.Result, float64, float64, error) {
		opt, err := ilt.NewOptimizer(l, cfg)
		if err != nil {
			return ilt.Result{}, 0, 0, err
		}
		clk := simclock.New(o.clockModelOrDefault())
		opt.SetClock(clk)
		start := time.Now()
		r := opt.RunCtx(o.context(), d)
		return r, time.Since(start).Seconds(), clk.Seconds(), nil
	}

	flowCfg := o.flowConfig()
	for _, name := range warmEvalCells(o.Fast) {
		if o.context().Err() != nil {
			o.logf("warmbench: deadline hit, stopping after %d cells\n", len(out.Cells))
			break
		}
		cell, err := layout.Cell(name)
		if err != nil {
			return out, err
		}
		gen := decomp.NewGenerator()
		gen.Classify = flowCfg.Classify
		gen.Seed = flowCfg.Seed
		cands, err := gen.Generate(cell)
		if err != nil {
			return out, err
		}
		if len(cands) == 0 {
			continue
		}
		d := cands[0]

		cold, wallCold, simCold, err := run(cell, d, base)
		if err != nil {
			return out, err
		}
		warm, wallWarm, simWarm, err := run(cell, d, warmCfg)
		if err != nil {
			return out, err
		}

		cb := WarmCellBench{
			Cell:          name,
			ItersCold:     cold.Iters,
			ItersWarm:     warm.Iters,
			ConvergedCold: cold.Converged,
			ConvergedWarm: warm.Converged,
			WallColdSec:   wallCold,
			WallWarmSec:   wallWarm,
			SimColdSec:    simCold,
			SimWarmSec:    simWarm,
			EPECold:       cold.EPE.Violations,
			EPEWarm:       warm.EPE.Violations,
			ViolCold:      cold.Violations.Total(),
			ViolWarm:      warm.Violations.Total(),
			L2Cold:        cold.L2,
			L2Warm:        warm.L2,
		}
		if len(cold.Trace) > 0 {
			cb.L2Cold0 = cold.Trace[0].L2
		}
		if len(warm.Trace) > 0 {
			cb.L2Warm0 = warm.Trace[0].L2
		}
		cb.VerdictParity = cb.EPEWarm == cb.EPECold && cb.ViolWarm == cb.ViolCold
		out.Cells = append(out.Cells, cb)
		o.logf("warmbench %-12s iters %2d -> %2d  L2[0] %.0f -> %.0f  sim %.2fs -> %.2fs  EPE %d -> %d  parity=%v\n",
			name, cb.ItersCold, cb.ItersWarm, cb.L2Cold0, cb.L2Warm0, cb.SimColdSec, cb.SimWarmSec,
			cb.EPECold, cb.EPEWarm, cb.VerdictParity)
	}
	if len(out.Cells) == 0 {
		return out, fmt.Errorf("warmbench: no cells evaluated")
	}

	var wallCold, wallWarm, simCold, simWarm float64
	out.VerdictParity = true
	for _, c := range out.Cells {
		out.ItersColdTotal += c.ItersCold
		out.ItersWarmTotal += c.ItersWarm
		wallCold += c.WallColdSec
		wallWarm += c.WallWarmSec
		simCold += c.SimColdSec
		simWarm += c.SimWarmSec
		out.EPEDelta += c.EPEWarm - c.EPECold
		out.VerdictParity = out.VerdictParity && c.VerdictParity
	}
	if out.ItersColdTotal > 0 {
		out.IterReduction = 1 - float64(out.ItersWarmTotal)/float64(out.ItersColdTotal)
	}
	if wallCold > 0 {
		out.WallReduction = 1 - wallWarm/wallCold
	}
	if simCold > 0 {
		out.SimReduction = 1 - simWarm/simCold
	}
	out.Pass = out.IterReduction >= 0.30 && out.SimReduction > 0 && out.EPEDelta <= 0
	o.logf("warmbench: iters %d -> %d (%.0f%% reduction), sim %.2fs -> %.2fs, EPE delta %+d, pass=%v\n",
		out.ItersColdTotal, out.ItersWarmTotal, 100*out.IterReduction, simCold, simWarm, out.EPEDelta, out.Pass)
	return out, nil
}

// WriteJSON writes the bench record to path.
func (b WarmBench) WriteJSON(path string) error {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Render prints the human-readable summary.
func (b WarmBench) Render(w io.Writer) {
	fmt.Fprintln(w, "Learned ILT warm-start benchmark")
	fmt.Fprintf(w, "trained on %d pairs (%d augmented) from %d layouts, %d epochs, net %.12s\n",
		b.TrainPairs, b.TrainSamples, b.TrainLayouts, b.TrainEpochs, b.NetDigest)
	fmt.Fprintf(w, "%-14s %22s %22s %12s\n", "cell", "iters cold->warm", "sim-sec cold->warm", "EPE")
	for _, c := range b.Cells {
		fmt.Fprintf(w, "%-14s %10d -> %-7d %11.2f -> %-7.2f %4d -> %d\n",
			c.Cell, c.ItersCold, c.ItersWarm, c.SimColdSec, c.SimWarmSec, c.EPECold, c.EPEWarm)
	}
	fmt.Fprintf(w, "iteration reduction %.0f%%  sim-time reduction %.0f%%  wall reduction %.0f%%\n",
		100*b.IterReduction, 100*b.SimReduction, 100*b.WallReduction)
	fmt.Fprintf(w, "EPE delta %+d  verdict parity %v  PASS=%v\n", b.EPEDelta, b.VerdictParity, b.Pass)
}
