package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"ldmo/internal/artifact"
	"ldmo/internal/core"
	"ldmo/internal/decomp"
	"ldmo/internal/epe"
	"ldmo/internal/fft"
	"ldmo/internal/grid"
	"ldmo/internal/ilt"
	"ldmo/internal/layout"
	"ldmo/internal/litho"
	"ldmo/internal/serve"
	"ldmo/internal/simclock"
)

// redriveStats is what re-driving the flow's stages from outside measured
// over a set of RunContext calls.
type redriveStats struct {
	layouts                    int
	wallS, predictS            float64 // the RunContext calls, and their predict spans
	decompS, iltS              float64 // the re-driven stages
	candidates, attempts       int
	forced, iters, aborts      int
	aerial, backward, snapshot int64  // litho calls and ILT snapshots, derived from convolution counts
	convs, graphOps, cnn       int64  // the flow's own simclock counts
	alloc                      uint64 // Go runtime allocation and collections during the calls
	gcs                        uint32
	probe                      *microProbe
}

// redrive repeats, stage by stage through the layer packages' public entry
// points, what one RunContext call (res, wall seconds, request span) did on
// l: candidate generation and rendering, then ILT over the first Attempts
// candidates in predicted order with the flow's abort on a print violation,
// plus the forced full rerun of the best candidate when there was one. The
// last ILT result must equal the flow's masks bit for bit, or the
// attribution does not describe the run.
//
// Call counts below the ILT come from a simclock attached to the re-driven
// optimizer: every iteration makes two Aerial and two AerialBackward calls,
// every snapshot two Aerial calls, and each call convolves the K kernels of
// the bank once.
func (r *runner) redrive(cfg core.Config, l layout.Layout, res core.Result, wall float64, span int, st *redriveStats) {
	root := r.tr.begin(0, "bench", "redrive", l.Name)
	defer r.tr.end(root, 1)
	id := r.tr.begin(root, "decomp", "generate", l.Name)
	t0 := time.Now()
	gen := decomp.NewGenerator()
	gen.Classify = cfg.Classify
	gen.Seed = cfg.Seed
	cands, err := gen.Generate(l)
	if err == nil && len(cands) > 1 {
		for _, d := range cands {
			d.GrayImage(cfg.ImageRes, cfg.ImageSize)
		}
	}
	decompS := time.Since(t0).Seconds()
	r.tr.end(id, len(cands))
	if err != nil || len(cands) != res.Candidates {
		r.failCheck("%s: re-driven generation gave %d candidates (%v), the flow %d", l.Name, len(cands), err, res.Candidates)
		return
	}

	id = r.tr.begin(root, "ilt", "run", l.Name)
	t0 = time.Now()
	iltCfg := cfg.ILT
	iltCfg.AbortOnViolation = true
	opt, err := ilt.NewOptimizer(l, iltCfg)
	if err != nil {
		r.tr.end(id, 0)
		r.failCheck("%s: re-driven optimizer: %v", l.Name, err)
		return
	}
	clk := simclock.New(cfg.ClockModel)
	opt.SetClock(clk)
	iters, aborts := 0, 0
	var last ilt.Result
	runILT := func(d decomp.Decomposition) {
		last = opt.Run(d)
		iters += last.Iters
		if last.Aborted {
			aborts++
		}
	}
	order := predictedOrder(res.PredScores, len(cands))
	for a := 0; a < res.Attempts; a++ {
		runILT(cands[order[a]])
	}
	if res.Forced {
		opt.SetAbortOnViolation(false)
		opt.SetMaxIters(0)
		runILT(cands[order[0]])
	}
	iltS := time.Since(t0).Seconds()
	r.tr.end(id, iters)
	if maskSHA(core.Result{ILT: last}) != maskSHA(res) {
		r.failCheck("%s: re-driven ILT masks differ from the flow's", l.Name)
		return
	}

	predictS, _, _ := r.tr.sum("model", "predict", map[int]bool{span: true})
	kernels := int64(len(litho.BuildKernelBank(iltCfg.Normalize().Litho)))
	calls := clk.Count(simclock.CostConvolution) / kernels
	backward := int64(2 * iters)
	st.layouts++
	st.wallS += wall
	st.predictS += predictS
	st.decompS += decompS
	st.iltS += iltS
	st.candidates += res.Candidates
	st.attempts += res.Attempts
	if res.Forced {
		st.forced++
	}
	st.iters += iters
	st.aborts += aborts
	st.aerial += calls - backward
	st.backward += backward
	st.snapshot += (calls - 2*backward) / 2
	st.convs += res.Clock.Count(simclock.CostConvolution)
	st.graphOps += res.Clock.Count(simclock.CostGraphOp)
	st.cnn += res.Clock.Count(simclock.CostCNNInference)
	if st.probe == nil {
		if st.probe, err = newMicroProbe(cfg, l); err != nil {
			r.failOp("%s: per-call timing: %v", l.Name, err)
			return
		}
	}
	st.probe.sample(r.sz.microBudget, l, res.ILT.Printed)
}

// predictedOrder is the flow's candidate order: ascending predicted score,
// ties and unscored layouts in generation order.
func predictedOrder(scores []float64, n int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	if scores != nil {
		sort.SliceStable(order, func(a, b int) bool { return scores[order[a]] < scores[order[b]] })
	}
	return order
}

// microProbe times the entry points below ILT one call at a time on one
// raster. redrive samples it right after re-driving each layout, so the
// per-call times see the same machine as the ILT time they are divided by.
type microProbe struct {
	w, h         int
	sim          *litho.Simulator
	fields       *litho.Fields
	aerial, grad []float64
	plan         *fft.Plan
	fs, fs2      *fft.Scratch
	kf, freq     []complex128
	ilt          ilt.Config
	// samples holds every timed call, in seconds, by entry point.
	samples map[string][]float64
}

func newMicroProbe(cfg core.Config, l layout.Layout) (*microProbe, error) {
	p := cfg.ILT.Normalize()
	res := p.Litho.Resolution
	m := &microProbe{w: l.Window.W() / res, h: l.Window.H() / res, ilt: p, samples: map[string][]float64{}}
	var err error
	if m.sim, err = litho.NewSimulator(m.w, m.h, p.Litho); err != nil {
		return nil, err
	}
	m.fields = m.sim.NewFields()
	m.aerial, m.grad = make([]float64, m.w*m.h), make([]float64, m.w*m.h)
	bank := litho.BuildKernelBank(p.Litho)
	ks := litho.MaxKernelSize(bank)
	m.plan = fft.PlanFor(m.w, m.h, ks, ks)
	m.fs, m.fs2 = m.plan.NewScratch(), m.plan.NewScratch()
	for _, k := range bank {
		if k.Size == ks {
			m.kf = m.plan.TransformKernelWith(m.fs2, k.Data)
		}
	}
	m.freq = make([]complex128, m.plan.SpecLen())
	return m, nil
}

// sample times each entry point for about budget on l's target raster and
// the resist image the flow printed for it. Layouts on another raster are
// skipped.
func (m *microProbe) sample(budget time.Duration, l layout.Layout, printed *grid.Grid) {
	if printed == nil || printed.W != m.w || printed.H != m.h {
		return
	}
	add := func(name string, prep, fn func()) {
		m.samples[name] = append(m.samples[name], timeCalls(budget, prep, fn)...)
	}
	mask := l.Rasterize(m.ilt.Litho.Resolution).Data
	add("aerial", nil, func() { m.sim.Aerial(mask, m.aerial, m.fields) })
	add("backward", nil, func() { m.sim.AerialBackward(m.aerial, m.fields, m.grad) })
	add("forward", nil, func() { m.plan.ForwardInto(m.fs, mask) })
	spec := m.plan.ForwardInto(m.fs, mask)
	add("apply", nil, func() { m.plan.ApplySpecWith(m.fs2, spec, m.kf, m.grad, false) })
	add("inverse", func() { copy(m.freq, spec) }, func() { m.plan.InverseSpec(m.fs2, m.freq, m.grad) })
	cps := epe.GenerateCheckpoints(l.Patterns, m.ilt.CheckpointSpacing)
	add("measure", nil, func() { m.ilt.Meter.Measure(printed, cps) })
	add("check", nil, func() { epe.CheckPrintViolations(printed, l.Patterns, m.ilt.Litho.PrintThreshold) })
}

// perCall is the median time of one call of an entry point.
func (m *microProbe) perCall(name string) float64 { return median(m.samples[name]) }

// artifactWrite times artifact.WriteFile — temp file, fsync, rename — of a
// payload the size of a finished job's state, in the run's work directory.
func (r *runner) artifactWrite() (float64, error) {
	dir, err := os.MkdirTemp(r.work, "artifact-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	payload, err := json.Marshal(serve.State{ID: "j-0123456789abcdef", Client: "bench", Status: serve.StatusDone,
		Result: &serve.Result{Decomposition: "0101", M1SHA256: fmt.Sprintf("%064d", 1),
			M2SHA256: fmt.Sprintf("%064d", 2), PrintedSHA256: fmt.Sprintf("%064d", 3)}})
	if err != nil {
		return 0, err
	}
	path := filepath.Join(dir, "state")
	var werr error
	ds := timeCalls(r.sz.microBudget, nil, func() {
		if err := artifact.WriteFile(path, "bench-state", 1, payload); err != nil {
			werr = err
		}
	})
	return median(ds), werr
}

// timeCalls times fn one call at a time, after one untimed call, for about
// budget and at least three calls, and returns the durations in seconds.
// prep, when set, runs untimed before each call.
func timeCalls(budget time.Duration, prep, fn func()) []float64 {
	if prep != nil {
		prep()
	}
	fn()
	var ds []float64
	for start := time.Now(); len(ds) < 3 || time.Since(start) < budget; {
		if prep != nil {
			prep()
		}
		t := time.Now()
		fn()
		ds = append(ds, time.Since(t).Seconds())
	}
	return ds
}

// emitLayers reports the per-layer metrics of a traced run. Stage times,
// counts and per-call times come from the re-driven RunContext calls in rd;
// the predictor's own numbers from the predict spans under the measured
// requests, which covered loopLayouts layouts.
func (r *runner) emitLayers(cfg core.Config, rd *redriveStats, loop map[int]bool, loopLayouts int) error {
	if rd.layouts == 0 || rd.probe == nil {
		return fmt.Errorf("no RunContext call to attribute the layers on")
	}
	n := rd.layouts
	per := func(x float64) float64 { return x / float64(n) }
	set := func(name, unit string, v float64) { r.rec.set(name, unit, v, n) }

	set("core.candidates_per_layout", "count", per(float64(rd.candidates)))
	set("core.attempts_per_layout", "count", per(float64(rd.attempts)))
	set("core.forced_ratio", "ratio", per(float64(rd.forced)))

	set("decomp.generate_s", "s", per(rd.decompS))
	set("decomp.graph_ops_per_layout", "count", per(float64(rd.graphOps)))

	predS, images, calls := r.tr.sum("model", "predict", loop)
	r.rec.set("model.predict_calls_per_layout", "count", float64(calls)/float64(loopLayouts), loopLayouts)
	r.rec.set("model.images_per_call", "count", float64(images)/float64(max(calls, 1)), calls)
	r.rec.set("model.predict_s_per_image", "s", predS/float64(max(images, 1)), images)
	set("model.cnn_inferences_per_layout", "count", per(float64(rd.cnn)))

	set("ilt.run_s_per_layout", "s", per(rd.iltS))
	set("ilt.iters_per_layout", "count", per(float64(rd.iters)))
	set("ilt.aborts_per_layout", "count", per(float64(rd.aborts)))
	r.rec.set("ilt.iter_s", "s", rd.iltS/float64(max(rd.iters, 1)), rd.iters)

	m := rd.probe
	lithoS := float64(rd.aerial)*m.perCall("aerial") + float64(rd.backward)*m.perCall("backward")
	measures := rd.iters + int(rd.snapshot)
	epeS := float64(measures)*m.perCall("measure") + float64(rd.snapshot)*m.perCall("check")
	points := float64(m.plan.PW * m.plan.PH)
	set("litho.aerial_s", "s", m.perCall("aerial"))
	set("litho.aerial_backward_s", "s", m.perCall("backward"))
	set("litho.convolutions_per_layout", "count", per(float64(rd.convs)))
	set("litho.share_of_ilt", "ratio", lithoS/rd.iltS)
	set("fft.forward_s", "s", m.perCall("forward"))
	set("fft.apply_spec_s", "s", m.perCall("apply"))
	set("fft.inverse_s", "s", m.perCall("inverse"))
	set("fft.gflops_computed", "GFLOP/s", 5*points*math.Log2(points)/m.perCall("forward")/1e9)
	set("epe.measure_s", "s", m.perCall("measure"))
	set("epe.check_s", "s", m.perCall("check"))
	set("epe.calls_per_layout", "count", per(float64(measures)+float64(rd.snapshot)))
	write, err := r.artifactWrite()
	if err != nil {
		return err
	}
	set("artifact.write_s", "s", write)
	set("bench.reconciled_share", "ratio", (rd.decompS+rd.predictS+rd.iltS)/rd.wallS)

	r.tr.attribution = map[string]float64{
		"decomp": per(rd.decompS),
		"model":  per(rd.predictS),
		"ilt":    per(rd.iltS - lithoS - epeS),
		"litho":  per(lithoS),
		"epe":    per(epeS),
		"other":  per(rd.wallS - rd.decompS - rd.predictS - rd.iltS),
	}
	r.rec.set("bench.spans", "count", float64(r.tr.len()), r.tr.len())
	r.logf("layers over %d layouts: reconciled %.3f, litho %.0f%% of ILT",
		n, (rd.decompS+rd.predictS+rd.iltS)/rd.wallS, 100*lithoS/rd.iltS)
	return nil
}

// emitSetup reports the set-up phases of the last repetition. The three
// phases of training go to the record only: paper-r18 trains nothing.
func (r *runner) emitSetup() {
	r.rec.set("setup.inputs_s", "s", r.inputsS, 1)
	r.rec.set("setup.predictor_s", "s", r.predictorS, 1)
	if r.trainS > 0 {
		r.rec.set("setup.select_s", "s", r.selectS, 1)
		r.rec.set("setup.label_s", "s", r.labelS, 1)
		r.rec.set("setup.train_s", "s", r.trainS, 1)
	}
}

// emitProc reports the Go runtime's allocation and collection counts per
// layout.
func (r *runner) emitProc(alloc uint64, gcs uint32, layouts int) {
	r.rec.set("proc.alloc_bytes_per_layout", "B", float64(alloc)/float64(layouts), layouts)
	r.rec.set("proc.gc_cycles_per_layout", "count", float64(gcs)/float64(layouts), layouts)
}

// emitPipeline reports the pipelined scheduler's own statistics, summed over
// the measured RunPipelineCtx calls. Only batch-8nm makes such calls, so they
// go to its record and not to the result line.
func (r *runner) emitPipeline(st core.PipelineStats) {
	n := st.Layouts
	per := func(d time.Duration) float64 { return d.Seconds() / float64(n) }
	set := func(name, unit string, v float64) { r.rec.set(name, unit, v, n) }
	set("core.gen_busy_s", "s", per(st.GenBusy))
	set("core.predict_busy_s", "s", per(st.PredictBusy))
	set("core.score_wait_s", "s", per(st.ScoreWait))
	set("core.opt_busy_s", "s", per(st.OptBusy))
	set("core.flushes_per_layout", "count", float64(st.Coalesce.Flushes)/float64(n))
	set("core.images_per_flush", "count", float64(st.Images)/float64(max(st.Coalesce.Flushes, 1)))
	set("core.occupancy", "ratio", (st.GenBusy+st.PredictBusy+st.OptBusy).Seconds()/(st.Wall.Seconds()*float64(st.Workers)))
}
