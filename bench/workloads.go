package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"ldmo/internal/core"
	"ldmo/internal/decomp"
	"ldmo/internal/grid"
	"ldmo/internal/layout"
	"ldmo/internal/model"
	"ldmo/internal/sampling"
)

// A workload sets up, runs its measured phase and checks its outputs,
// filling the runner's record.
type workload func(r *runner) error

// workloads stress different layers; README.md says why each was chosen.
var workloads = map[string]workload{
	"cells-4nm": runCells,
	"batch-8nm": runBatch,
	"paper-r18": runPaperR18,
	"serve-mix": runServeMix,
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// sizes are the input sizes of every workload. fullSizes is what the
// benchmark measures; the smoke test runs toy sizes.
type sizes struct {
	setupReps int
	// train fits the predictor in set-up; without it the flow runs the
	// untrained TinyConfig network.
	train                                   bool
	trainPool, clusters, perCluster, epochs int
	// cells-4nm runs cellsLib library cells plus cellsGen generated layouts.
	cellsLib, cellsGen int
	// batch-8nm cycles through batchPool layouts, batch layouts per call.
	batchPool, batch int
	// paper-r18 runs r18Pool two-candidate layouts, scored by the ResNet-18
	// predictor when r18 is set.
	r18     bool
	r18Pool int
	// verify is how many inputs are rerun through RunContext after the
	// measured phase: by the batch workloads always, by every workload in a
	// traced run. recheck is how many are rerun after a measured phase of a
	// single pass, which has no later pass to compare with the first.
	verify, recheck int
	// serve-mix offers a schedule of serveRate jobs per second in bursts of
	// serveBurst arrivals, checks serveSample jobs per raster in process,
	// and waits serveDrain for the last jobs of a burst.
	serveRate   float64
	serveBurst  int
	serveSample int
	serveDrain  time.Duration
	// microBudget is how long one litho, fft or epe entry point is timed
	// after each re-driven layout.
	microBudget time.Duration
}

func fullSizes() sizes {
	return sizes{
		setupReps: 3,
		train:     true, trainPool: 16, clusters: 4, perCluster: 2, epochs: 3,
		cellsLib: 13, cellsGen: 3,
		batchPool: 96, batch: 8,
		r18: true, r18Pool: 32,
		verify: 10, recheck: 3,
		serveRate: 128, serveBurst: mixBlock, serveSample: 3, serveDrain: 30 * time.Second,
		microBudget: 20 * time.Millisecond,
	}
}

// trainSeed fixes the predictor's training pool: the trained predictor is
// part of the system under test, the same in every run, while --seed picks
// the inputs it is measured on.
const trainSeed = 1

type runConfig struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	serveBin string
	work     string
	sz       sizes
	log      io.Writer
}

// runner carries one run: its configuration, the record it fills, and the
// tracer of a traced run.
type runner struct {
	runConfig
	rec     *record
	tr      *tracer
	workers int
	yard    *yardstick
	// yardS and yardCPU hold the wall time and the CPU time per worker of
	// every yardstick timed in this run, seconds.
	yardS, yardCPU []float64
	// Set-up phase times of the last set-up repetition, seconds: making the
	// inputs, building the predictor, and the three phases of training it.
	inputsS, predictorS     float64
	selectS, labelS, trainS float64
}

func runWorkload(w workload, cfg runConfig) (*runner, error) {
	workers := runtime.GOMAXPROCS(0)
	r := &runner{
		runConfig: cfg,
		workers:   workers,
		yard:      newYardstick(workers),
		rec: &record{
			Workload: cfg.workload,
			Seed:     cfg.seed,
			Seconds:  int(cfg.seconds / time.Second),
			Trace:    cfg.trace,
			Host:     currentHost(),
			Correct:  true,
			Metrics:  map[string]metric{},
		},
	}
	if cfg.trace {
		r.tr = newTracer()
	}
	if err := w(r); err != nil {
		return r, err
	}
	if _, ok := r.rec.Metrics["peak_rss_mb"]; !ok {
		r.rec.set("peak_rss_mb", "MB", peakRSSMB(), 1)
	}
	// Measured wall and CPU times are about the reference-host times
	// multiplied by these.
	r.rec.set("bench.host_slowdown", "ratio", median(r.yardS)/yardstickS, len(r.yardS))
	r.rec.set("bench.host_cpu_slowdown", "ratio", median(r.yardCPU)/yardstickS, len(r.yardCPU))
	return r, nil
}

// speed is how fast the host ran the yardstick: the factors that turn wall
// and CPU times measured at the time into reference-host times.
type speed struct{ wall, cpu float64 }

// mid is the mean of two speeds, for work done between their measurements.
func (s speed) mid(t speed) speed { return speed{(s.wall + t.wall) / 2, (s.cpu + t.cpu) / 2} }

// hostSpeed times the yardstick, after a garbage collection so that it runs
// alone, and returns the host's speed.
func (r *runner) hostSpeed() speed {
	runtime.GC()
	wall, cpu := r.yard.measure()
	cpu /= float64(r.workers)
	r.yardS, r.yardCPU = append(r.yardS, wall), append(r.yardCPU, cpu)
	return speed{yardstickS / wall, yardstickS / cpu}
}

// failCheck records an output that is not what it must be.
func (r *runner) failCheck(format string, args ...any) {
	r.rec.Correct = false
	r.failOp(format, args...)
}

// failOp records an operation that failed or was refused.
func (r *runner) failOp(format string, args ...any) {
	r.rec.Failed++
	r.rec.Failures = append(r.rec.Failures, fmt.Sprintf(format, args...))
}

func (r *runner) logf(format string, args ...any) {
	if r.log != nil {
		fmt.Fprintf(r.log, "bench: "+format+"\n", args...)
	}
}

// timedSetup runs the set-up sz.setupReps times, reports the median time in
// reference-host seconds as setup_s, and returns the last repetition's
// product; release disposes of the earlier ones. Each repetition is scaled
// by the mean of the host speeds measured right before and right after it.
func timedSetup[T any](r *runner, setup func() (T, error), release func(T)) (T, error) {
	var last T
	var times []float64
	before := r.hostSpeed()
	for i := 0; i < r.sz.setupReps; i++ {
		if i > 0 && release != nil {
			release(last)
		}
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			return v, fmt.Errorf("set-up: %w", err)
		}
		d := time.Since(t0).Seconds()
		after := r.hostSpeed()
		times = append(times, d*before.mid(after).wall)
		before = after
		last = v
	}
	r.rec.set("setup_s", "s", median(times), len(times))
	r.logf("set-up %.2fs (median of %d, reference-host seconds)", median(times), len(times))
	return last, nil
}

// trainPredictor is the set-up every workload but paper-r18 shares: select
// representative layouts from a fixed pool, label their sampled
// decompositions with full 8 nm ILT, and fit the TinyConfig predictor.
func (r *runner) trainPredictor() (*model.Predictor, error) {
	if !r.sz.train {
		return model.New(model.TinyConfig())
	}
	gp := layout.DefaultGenParams()
	gp.MinContacts = 4 // smaller layouts have at most two candidates and teach nothing
	pool, err := layout.GenerateSet(trainSeed, r.sz.trainPool, gp)
	if err != nil {
		return nil, err
	}
	sc := sampling.DefaultConfig()
	sc.Seed = trainSeed
	sc.Clusters, sc.PerCluster = r.sz.clusters, r.sz.perCluster
	sc.Workers = r.workers
	t0 := time.Now()
	selected, err := sampling.SelectLayouts(pool, sc)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	ds, _, err := sampling.BuildDatasetCtx(context.Background(), selected, sc, nil)
	if err != nil {
		return nil, err
	}
	t2 := time.Now()
	pred, err := model.New(model.TinyConfig())
	if err != nil {
		return nil, err
	}
	tc := model.DefaultTrainConfig()
	tc.Seed = trainSeed
	tc.Epochs = r.sz.epochs
	tc.DecayAt = tc.Epochs * 2 / 3
	if _, err := pred.TrainCtx(context.Background(), ds.Augmented(), tc); err != nil {
		return nil, err
	}
	r.selectS, r.labelS, r.trainS = t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds(), time.Since(t2).Seconds()
	return pred, nil
}

// flowConfig is the flow the workloads run: the paper's settings on a res nm
// raster with one worker per CPU.
func flowConfig(res, workers int) core.Config {
	cfg := core.DefaultConfig()
	cfg.ILT.Litho.Resolution = res
	cfg.Workers = workers
	return cfg
}

// warmupSeed derives the seed of the untimed layout that fills the
// process-wide plan, kernel and predictor caches before the measured phase.
// It is not one of the inputs.
func warmupSeed(seed int64) int64 { return seed + 7919 }

type flowInputs struct {
	ls     []layout.Layout
	warmup layout.Layout
	pred   *model.Predictor
}

// setupFlow is the timed set-up of the flow workloads: make the inputs and
// the warm-up layout, then build the predictor, each phase timed on its own.
func (r *runner) setupFlow(inputs func() ([]layout.Layout, layout.Layout, error), predictor func() (*model.Predictor, error)) (flowInputs, error) {
	in, err := timedSetup(r, func() (flowInputs, error) {
		t0 := time.Now()
		ls, warm, err := inputs()
		if err != nil {
			return flowInputs{}, err
		}
		t1 := time.Now()
		pred, err := predictor()
		r.inputsS, r.predictorS = t1.Sub(t0).Seconds(), time.Since(t1).Seconds()
		return flowInputs{ls, warm, pred}, err
	}, nil)
	r.emitSetup()
	return in, err
}

// generated makes the inputs prefix followed by n layouts generated from
// seed, and a generated warm-up layout that is not among them.
func generated(seed int64, n int, prefix []layout.Layout) func() ([]layout.Layout, layout.Layout, error) {
	return func() ([]layout.Layout, layout.Layout, error) {
		ls, err := layout.GenerateSet(seed, n, layout.DefaultGenParams())
		if err != nil {
			return nil, layout.Layout{}, err
		}
		warm, err := layout.GenerateSet(warmupSeed(seed), 1, layout.DefaultGenParams())
		if err != nil {
			return nil, layout.Layout{}, err
		}
		return append(append([]layout.Layout(nil), prefix...), ls...), warm[0], nil
	}
}

// runCells is the closed loop of one user waiting on each clip at the paper's
// 4 nm raster: the library cells plus seeded generated layouts, one
// RunContext at a time.
func runCells(r *runner) error {
	in, err := r.setupFlow(generated(r.seed, r.sz.cellsGen, layout.Cells()[:r.sz.cellsLib]), r.trainPredictor)
	if err != nil {
		return err
	}
	return r.flowWorkload(flowConfig(4, r.workers), in, 0)
}

// runBatch is dataset-scale throughput: RunPipelineCtx over batches of
// seeded generated layouts at 8 nm.
func runBatch(r *runner) error {
	in, err := r.setupFlow(generated(r.seed, r.sz.batchPool, nil), r.trainPredictor)
	if err != nil {
		return err
	}
	return r.flowWorkload(flowConfig(8, r.workers), in, r.sz.batch)
}

// runPaperR18 is the closed loop at 8 nm with the paper's ResNet-18
// predictor at 224x224 scoring the candidates. Its weights are the seeded
// initialization: the workload measures the paper-scale predictor's cost,
// not its ranking quality.
func runPaperR18(r *runner) error {
	cfg := flowConfig(8, r.workers)
	in, err := r.setupFlow(func() ([]layout.Layout, layout.Layout, error) {
		ls, err := twoCandidateLayouts(r.seed, r.sz.r18Pool, cfg)
		if err != nil {
			return nil, layout.Layout{}, err
		}
		warm, err := twoCandidateLayouts(warmupSeed(r.seed), 1, cfg)
		if err != nil {
			return nil, layout.Layout{}, err
		}
		return ls, warm[0], nil
	}, func() (*model.Predictor, error) {
		if r.sz.r18 {
			return model.New(model.ResNet18Config())
		}
		return model.New(model.TinyConfig())
	})
	if err != nil {
		return err
	}
	return r.flowWorkload(cfg, in, 0)
}

// twoCandidateLayouts generates seeded layouts that have exactly two
// decomposition candidates under cfg. Each request then scores two images,
// one per predictor lane on a two-core host: the ResNet-18 predictor keeps
// buffers of about 300 MB per image of its largest batch, so larger
// candidate sets would make the workload's memory, not its compute, the
// story.
func twoCandidateLayouts(seed int64, n int, cfg core.Config) ([]layout.Layout, error) {
	rng := rand.New(rand.NewSource(seed))
	gen := decomp.NewGenerator()
	gen.Classify = cfg.Classify
	gen.Seed = cfg.Seed
	var out []layout.Layout
	for tries := 0; len(out) < n; tries++ {
		if tries == 100*n {
			return nil, fmt.Errorf("found %d of %d two-candidate layouts in %d tries", len(out), n, tries)
		}
		l, err := layout.Generate(rng, layout.DefaultGenParams())
		if err != nil {
			return nil, err
		}
		cands, err := gen.Generate(l)
		if err != nil {
			return nil, err
		}
		if len(cands) == 2 {
			l.Name = fmt.Sprintf("gen-%04d", len(out))
			out = append(out, l)
		}
	}
	return out, nil
}

// flowWorkload warms the caches, runs the measured loop — RunContext per
// layout when batch is 0, RunPipelineCtx per batch otherwise — reports the
// end-to-end metrics, checks the outputs and, in a traced run, attributes the
// time to the layers.
func (r *runner) flowWorkload(cfg core.Config, in flowInputs, batch int) error {
	if len(in.ls) < max(batch, 1) || len(in.ls)%max(batch, 1) != 0 {
		return fmt.Errorf("%d inputs do not split into batches of %d", len(in.ls), batch)
	}
	if _, err := core.NewFlow(in.pred, cfg).RunContext(context.Background(), in.warmup); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	var ts *timedScorer
	var scorer core.Scorer = in.pred
	if r.tr != nil {
		ts = &timedScorer{p: in.pred, tr: r.tr}
		scorer = ts
	}
	flow := core.NewFlow(scorer, cfg)

	fl, err := r.flowLoop(flow, in.ls, batch, ts)
	if err != nil {
		return err
	}
	p50, p75 := r.emitLatency(fl.lat)
	r.rec.set("layouts_per_s", "1/s", float64(fl.layouts)/sum(fl.lat), fl.layouts)
	r.rec.set("cpu_s_per_layout", "s", sum(fl.cpu)/float64(fl.layouts), fl.layouts)
	r.rec.set("bench.passes", "count", float64(fl.passes), len(fl.lat))
	r.emitQuality(fl.pass0)
	r.logf("%d requests in %d passes, %d layouts in %.2fs: p50 %.3fs p75 %.3fs (reference-host seconds)",
		len(fl.lat), fl.passes, fl.layouts, fl.wall.Seconds(), p50, p75)

	// Batches: the first layouts, rerun one at a time through RunContext,
	// must equal their pipelined results; after a single pass they must
	// equal that pass. A traced run attributes the layers on such reruns for
	// every workload.
	var rd *redriveStats
	if r.tr != nil {
		rd = &redriveStats{}
	}
	n := 0
	switch {
	case batch > 0 || rd != nil:
		n = r.sz.verify
	case fl.passes == 1:
		n = r.sz.recheck
	}
	if n = min(n, len(in.ls)); n > 0 {
		r.rerun(flow, cfg, in.ls[:n], fl.sums[:n], ts, "the measured pass", rd)
	}
	if rd == nil {
		return nil
	}
	r.emitProc(fl.alloc, fl.gcs, fl.layouts)
	if batch > 0 {
		r.emitPipeline(fl.pipe)
	}
	return r.emitLayers(cfg, rd, fl.spans, fl.layouts)
}

// flowLoop is what the measured loop of a flow workload observed.
type flowLoop struct {
	// lat and cpu hold each request's wall and CPU time, in reference-host
	// seconds.
	lat, cpu []float64
	passes   int // whole passes over the inputs
	layouts  int
	wall     time.Duration
	pass0    []core.Result
	sums     [][3]string  // mask hashes of the first pass
	spans    map[int]bool // the request spans of a traced run
	pipe     core.PipelineStats
	alloc    uint64
	gcs      uint32
}

// emitLatency reports and returns the median and 75th percentile of the
// requests' latencies.
func (r *runner) emitLatency(lat []float64) (p50, p75 float64) {
	p50, _ = nearestRank(lat, 0.50)
	p75, _ = nearestRank(lat, 0.75)
	r.rec.set("latency_p50_s", "s", p50, len(lat))
	r.rec.set("latency_p75_s", "s", p75, len(lat))
	return p50, p75
}

// flowLoop runs whole passes over the inputs, starting another only while
// half a pass of the mean length so far still ends within the measured
// phase, so that the phase ends as near its length as whole passes allow and
// every input is measured equally often however fast the host runs. It
// checks that every later pass produces the same masks as the first. Before
// the first request and after each one it collects the garbage and times the
// yardstick: the mean of the host speeds measured right before and right
// after a request scales its times to the reference host, and every request
// starts on a collected heap.
func (r *runner) flowLoop(flow *core.Flow, ls []layout.Layout, batch int, ts *timedScorer) (*flowLoop, error) {
	step := max(batch, 1)
	name := "run"
	if batch > 0 {
		name = "pipeline"
	}
	fl := &flowLoop{pass0: make([]core.Result, len(ls)), sums: make([][3]string, len(ls)), spans: map[int]bool{}}
	start := time.Now()
	before := r.hostSpeed()
	for pass := 0; pass == 0 || time.Since(start)*time.Duration(2*pass+1)/time.Duration(2*pass) <= r.seconds; pass++ {
		fl.passes++
		for lo := 0; lo < len(ls); lo += step {
			chunk := ls[lo : lo+step]
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			id := r.tr.begin(0, "core", name, chunk[0].Name)
			fl.spans[id] = true
			if ts != nil {
				ts.parent.Store(int64(id))
			}
			cpu0 := cpuSeconds()
			t0 := time.Now()
			var prs []core.PipeResult
			if batch == 0 {
				res, err := flow.RunContext(context.Background(), chunk[0])
				prs = []core.PipeResult{{Res: res, Err: err}}
			} else {
				var st core.PipelineStats
				prs, st = flow.RunPipelineCtx(context.Background(), chunk, core.PipelineOptions{Workers: r.workers})
				addPipe(&fl.pipe, st)
			}
			d := time.Since(t0)
			cpu := cpuSeconds() - cpu0
			r.tr.end(id, len(chunk))
			runtime.ReadMemStats(&ms1)
			fl.alloc += ms1.TotalAlloc - ms0.TotalAlloc
			fl.gcs += ms1.NumGC - ms0.NumGC
			after := r.hostSpeed()
			s := before.mid(after)
			before = after
			fl.lat = append(fl.lat, d.Seconds()*s.wall)
			fl.cpu = append(fl.cpu, cpu*s.cpu)
			for j, pr := range prs {
				i := lo + j
				r.rec.Attempted++
				if pr.Err != nil {
					r.failOp("%s: %v", ls[i].Name, pr.Err)
					continue
				}
				fl.layouts++
				sum := maskSHA(pr.Res)
				switch {
				case pass == 0:
					fl.pass0[i], fl.sums[i] = pr.Res, sum
				case sum != fl.sums[i]:
					r.failCheck("%s: masks of pass %d differ from pass 1", ls[i].Name, pass+1)
				}
			}
		}
	}
	fl.wall = time.Since(start)
	if fl.layouts == 0 {
		return nil, fmt.Errorf("no layout completed")
	}
	return fl, nil
}

// rerun runs each layout through RunContext and checks its masks against
// want, the hashes of what another path produced. With rd set, each call is
// followed at once by re-driving its stages, so that both see the same
// machine, and rd accumulates the attribution. It returns the calls' spans.
func (r *runner) rerun(flow *core.Flow, cfg core.Config, ls []layout.Layout, want [][3]string, ts *timedScorer, what string, rd *redriveStats) map[int]bool {
	spans := map[int]bool{}
	for i, l := range ls {
		id := r.tr.begin(0, "core", "run", l.Name)
		spans[id] = true
		if ts != nil {
			ts.parent.Store(int64(id))
		}
		var ms0, ms1 runtime.MemStats
		if rd != nil {
			runtime.ReadMemStats(&ms0)
		}
		t0 := time.Now()
		res, err := flow.RunContext(context.Background(), l)
		d := time.Since(t0)
		r.tr.end(id, 1)
		if rd != nil {
			runtime.ReadMemStats(&ms1)
			rd.alloc += ms1.TotalAlloc - ms0.TotalAlloc
			rd.gcs += ms1.NumGC - ms0.NumGC
		}
		r.rec.Attempted++
		if err != nil {
			r.failOp("%s: rerun: %v", l.Name, err)
			continue
		}
		if maskSHA(res) != want[i] {
			r.failCheck("%s: RunContext masks differ from %s", l.Name, what)
		}
		if rd != nil {
			r.redrive(cfg, l, res, d.Seconds(), id, rd)
		}
	}
	return spans
}

func addPipe(sum *core.PipelineStats, st core.PipelineStats) {
	sum.Workers = st.Workers
	sum.Layouts += st.Layouts
	sum.Images += st.Images
	sum.Coalesce.Flushes += st.Coalesce.Flushes
	sum.GenBusy += st.GenBusy
	sum.PredictBusy += st.PredictBusy
	sum.ScoreWait += st.ScoreWait
	sum.OptBusy += st.OptBusy
	sum.Wall += st.Wall
}

// emitQuality reports the deterministic end-to-end metrics of the first
// pass: the paper's model runtime and the edge-placement error.
func (r *runner) emitQuality(pass0 []core.Result) {
	var secs, epeNM []float64
	for _, res := range pass0 {
		if res.Clock != nil {
			secs = append(secs, res.Seconds)
			epeNM = append(epeNM, res.ILT.EPE.MeanAbs)
		}
	}
	r.emitQualityOf(secs, epeNM)
}

// emitQualityOf reports the mean model seconds and the median over layouts
// of the final masks' mean |EPE|. The median, not the mean: a few layouts
// that end with missing contours carry EPEs of the 40 nm search range, and
// which few a seed draws moved the mean by twice as much from seed to seed.
func (r *runner) emitQualityOf(secs, epeNM []float64) {
	v, _ := nearestRank(epeNM, 0.5)
	r.rec.set("model_s_per_layout", "s", mean(secs), len(secs))
	r.rec.set("epe_median_nm", "nm", v, len(epeNM))
}

// maskSHA hashes the committed masks and the printed image of a flow result
// the way the job service reports them.
func maskSHA(res core.Result) [3]string {
	return [3]string{gridSHA(res.ILT.M1), gridSHA(res.ILT.M2), gridSHA(res.ILT.Printed)}
}

// gridSHA is the SHA-256 of a raster's float64 bit patterns, little-endian.
func gridSHA(g *grid.Grid) string {
	if g == nil {
		return ""
	}
	h := sha256.New()
	var b [8]byte
	for _, v := range g.Data {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}
