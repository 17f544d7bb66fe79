package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"ldmo/internal/core"
	"ldmo/internal/layout"
	"ldmo/internal/model"
	"ldmo/internal/serve"
)

// arrival is one scheduled request of the open loop.
type arrival struct {
	At   time.Duration // offset from the start of the step
	Spec serve.JobSpec
	Kind string // "new-8nm", "new-4nm" or "resubmit"
}

// mixBlock is the length of the runs of consecutive arrivals that each hold
// the job mix exactly.
const mixBlock = 20

// schedule draws the open loop before it runs: rate*d arrivals at times
// drawn uniformly over [0, d) — a Poisson process conditioned on its count.
// Of every mixBlock consecutive arrivals, 80% are new 8 nm generated
// layouts, 5% new 4 nm ones and 15% resubmissions of an earlier spec, which
// the service answers from its dedupe cache once the first submission is
// done. The 4 nm jobs close their block and the rest come in an order drawn
// from the seed. Fixing the count, the mix and the 4 nm jobs' place in every
// block leaves the seed to choose only the layouts, the order of the rest
// and the burstiness, and a run that offers only part of the schedule still
// offers the mix.
//
// A 4 nm job runs about four times longer than an 8 nm one, and the jobs
// queued behind it wait for its wave. Offered in bursts of one block, a 4 nm
// job at a place drawn from the seed moved the median latency with how many
// jobs waited for it (a spread of 0.15 over six runs), and one leading the
// block with the 4 nm layouts the seed drew (0.32). Closing the block, it
// holds up only the jobs of its own wave.
func schedule(seed int64, rate float64, d time.Duration) []arrival {
	rng := rand.New(rand.NewSource(seed))
	n := int(math.Round(rate * d.Seconds()))
	at := make([]time.Duration, n)
	for i := range at {
		at[i] = time.Duration(rng.Int63n(int64(d)))
	}
	sort.Slice(at, func(a, b int) bool { return at[a] < at[b] })
	kinds := make([]string, n)
	for lo := 0; lo < n; lo += mixBlock {
		block := kinds[lo:min(lo+mixBlock, n)]
		m := float64(len(block))
		n4, nr := int(math.Round(0.05*m)), int(math.Round(0.15*m))
		rest := block[:len(block)-n4]
		for i := range block {
			switch {
			case i >= len(rest):
				block[i] = "new-4nm"
			case i < nr:
				block[i] = "resubmit"
			default:
				block[i] = "new-8nm"
			}
		}
		rng.Shuffle(len(rest), func(a, b int) { rest[a], rest[b] = rest[b], rest[a] })
	}
	// The first arrival cannot resubmit anything.
	for i := 0; i < n && kinds[0] == "resubmit"; i++ {
		kinds[0], kinds[i] = kinds[i], kinds[0]
	}
	out := make([]arrival, n)
	var specs []serve.JobSpec
	for i, kind := range kinds {
		switch kind {
		case "resubmit":
			out[i] = arrival{At: at[i], Spec: specs[rng.Intn(len(specs))], Kind: kind}
			continue
		case "new-4nm":
			specs = append(specs, jobSpec(seed, len(specs), false))
		default:
			specs = append(specs, jobSpec(seed, len(specs), true))
		}
		out[i] = arrival{At: at[i], Spec: specs[len(specs)-1], Kind: kind}
	}
	return out
}

// jobSpec is the i-th distinct generated-layout job of a seed's schedule.
func jobSpec(seed int64, i int, fast bool) serve.JobSpec {
	gs := int64(uint64(seed)%1_000_000)*1_000_000 + int64(i)
	return serve.JobSpec{GenSeed: &gs, Fast: fast}
}

// bursts splits a schedule into bursts of n consecutive arrivals (the last
// may be shorter), each with its arrivals' times counted from its first.
func bursts(arr []arrival, n int) [][]arrival {
	var out [][]arrival
	for lo := 0; lo < len(arr); lo += n {
		b := append([]arrival(nil), arr[lo:min(lo+n, len(arr))]...)
		t0 := b[0].At
		for i := range b {
			b[i].At -= t0
		}
		out = append(out, b)
	}
	return out
}

// child is the ldmo-serve process the workload drives.
type child struct {
	cmd  *exec.Cmd
	base string
	done chan struct{} // closed once the process has exited and been waited for
}

// startServe starts ldmo-serve on a free loopback port over a fresh job
// store in dir and waits until /readyz answers OK.
func startServe(bin, dir, predPath string, workers int) (*child, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	cmd := exec.Command(bin, "-addr", addr, "-dir", filepath.Join(dir, "jobs"),
		"-workers", strconv.Itoa(workers), "-queue", "64", "-model", predPath, "-q")
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start ldmo-serve: %w", err)
	}
	c := &child{cmd: cmd, base: "http://" + addr, done: make(chan struct{})}
	go func() {
		cmd.Wait()
		close(c.done)
	}()
	hc := &http.Client{Timeout: time.Second}
	defer hc.CloseIdleConnections()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if resp, err := hc.Get(c.base + "/readyz"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return c, nil
			}
		}
		if time.Now().After(deadline) {
			c.stop()
			return nil, fmt.Errorf("ldmo-serve not ready after 30s")
		}
		select {
		case <-c.done:
			return nil, fmt.Errorf("ldmo-serve exited before it was ready: %v", cmd.ProcessState)
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// stop drains the child with SIGTERM, kills it if the drain takes longer
// than 30 s, waits for it, and returns its resource usage. Stopping a
// stopped child returns the same usage.
func (c *child) stop() *syscall.Rusage {
	c.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-c.done:
	case <-time.After(30 * time.Second):
		c.cmd.Process.Kill()
		<-c.done
	}
	ru, _ := c.cmd.ProcessState.SysUsage().(*syscall.Rusage)
	return ru
}

// cpu reads the child's user plus system CPU seconds from /proc, which
// counts in clock ticks of 1/100 s on Linux.
func (c *child) cpu() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name start at field 3.
	f := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse /proc stat: %v %v", err1, err2)
	}
	return (ut + st) / 100, nil
}

// settle waits, for at most a second, until the child has used no CPU for
// 50 ms, so that a yardstick timed next does not share the host with the
// service's clean-up after its last jobs.
func (c *child) settle() {
	last, err := c.cpu()
	quiet := time.Now()
	for deadline := quiet.Add(time.Second); err == nil && time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
		var now float64
		if now, err = c.cpu(); now != last {
			last, quiet = now, time.Now()
		} else if time.Since(quiet) >= 50*time.Millisecond {
			return
		}
	}
}

// serveClient talks to the child over at most conns connections, shared by
// the generator's submissions and the poller.
type serveClient struct {
	base string
	hc   *http.Client
}

func newServeClient(base string, conns int) *serveClient {
	return &serveClient{base: base, hc: &http.Client{Timeout: 30 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}}}
}

func (c *serveClient) submit(spec serve.JobSpec) (serve.SubmitResponse, int, error) {
	var sr serve.SubmitResponse
	body, err := json.Marshal(spec)
	if err != nil {
		return sr, 0, err
	}
	resp, err := c.hc.Post(c.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return sr, 0, err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(&sr)
	return sr, resp.StatusCode, err
}

func (c *serveClient) getJSON(path string, v any) error {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// await polls one job until it settles, for the untimed warm-up.
func (c *serveClient) await(id string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		var sr serve.SubmitResponse
		if err := c.getJSON("/v1/jobs/"+id, &sr); err != nil {
			return err
		}
		switch sr.Status {
		case serve.StatusDone:
			return nil
		case serve.StatusFailed:
			return fmt.Errorf("job %s failed: %s", id, sr.Error)
		}
		time.Sleep(10 * time.Millisecond)
	}
	return fmt.Errorf("job %s not done after %v", id, timeout)
}

// jobObs is what the client saw of one arrival.
type jobObs struct {
	arrival
	due    time.Time
	id     string
	lat    float64 // seconds from due to observed done; +Inf for a miss
	result *serve.Result
}

// stepObs is everything one open-loop step observed.
type stepObs struct {
	jobs                         []*jobObs
	late                         []float64 // generator lateness per arrival
	submitLat, cacheLat, pollLat []float64
	queueLen, running            []float64 // /v1/stats samples of a traced run
	start, end                   time.Time
	cpu                          float64 // child CPU seconds over the step
}

// openLoop sends the arrivals, the last of them due span after the step
// starts, at their scheduled times regardless of how the service keeps up,
// reads the service's counters every 10 ms, and polls the accepted jobs
// whenever one may have settled. Each job is timed from when it was due, so
// a stalled generator shows as latency, and a refused or failed job counts
// as a miss.
func (r *runner) openLoop(c *serveClient, proc *child, arr []arrival, span time.Duration) (*stepObs, error) {
	obs := &stepObs{}
	cpu0, err := proc.cpu()
	if err != nil {
		return nil, err
	}
	// Buffered for every arrival, so no sender blocks on a poller that gave
	// up at the drain deadline.
	accepted := make(chan *jobObs, len(arr))
	genDone := make(chan struct{})
	// mu guards the fields the generator and its senders fill, and genFails;
	// the poller reads them once genDone is closed, and records genFails then.
	var mu sync.Mutex
	var genFails []string
	send := func(j *jobObs) {
		t0 := time.Now()
		sr, code, err := c.submit(j.Spec)
		d := time.Since(t0).Seconds()
		mu.Lock()
		defer mu.Unlock()
		j.id = sr.ID
		switch {
		case err != nil:
			genFails = append(genFails, fmt.Sprintf("submit: %v", err))
		case code == http.StatusTooManyRequests:
			genFails = append(genFails, "submit: shed with 429")
		case code == http.StatusOK && sr.Cached && sr.Result != nil:
			obs.cacheLat = append(obs.cacheLat, d)
			j.lat, j.result = time.Since(j.due).Seconds(), sr.Result
		case code == http.StatusAccepted:
			if j.Kind != "resubmit" {
				obs.submitLat = append(obs.submitLat, d)
			}
			accepted <- j
		default:
			genFails = append(genFails, fmt.Sprintf("submit: HTTP %d", code))
		}
	}
	obs.start = time.Now()
	// The generator sends each arrival from its own goroutine at its due
	// time, so a slow submission delays no later one; the client's
	// connection limit still bounds what is in flight.
	go func() {
		defer close(genDone)
		var sends sync.WaitGroup
		for _, a := range arr {
			j := &jobObs{arrival: a, due: obs.start.Add(a.At), lat: math.Inf(1)}
			time.Sleep(time.Until(j.due))
			mu.Lock()
			obs.late = append(obs.late, time.Since(j.due).Seconds())
			obs.jobs = append(obs.jobs, j)
			mu.Unlock()
			sends.Add(1)
			go func() {
				defer sends.Done()
				send(j)
			}()
		}
		sends.Wait()
		close(accepted)
	}()

	pending := map[string][]*jobObs{}
	deadline := obs.start.Add(span + r.sz.serveDrain)
	var lastStats time.Time
	settled := int64(-1)
	for in := accepted; in != nil || len(pending) > 0; {
		cycle := time.Now()
		fresh := false
	collect:
		for {
			select {
			case j, ok := <-in:
				if !ok {
					in = nil
					break collect
				}
				pending[j.id] = append(pending[j.id], j)
				fresh = true
			default:
				break collect
			}
		}
		// The pending jobs are polled only when one is new or the service
		// has settled another job since the last round, so that the poller
		// keeps off the cores the service computes on.
		var st serve.Stats
		if err := c.getJSON("/v1/stats", &st); err != nil {
			return nil, err
		}
		if r.tr != nil && time.Since(lastStats) >= 100*time.Millisecond {
			lastStats = time.Now()
			obs.queueLen = append(obs.queueLen, float64(st.QueueLen))
			obs.running = append(obs.running, float64(st.Running))
		}
		if n := st.Done + st.Failed; fresh || n != settled {
			settled = n
			r.poll(c, pending, obs)
		}
		if time.Now().After(deadline) {
			for id := range pending {
				r.failOp("job %s not done %v after the step", id, r.sz.serveDrain)
			}
			break
		}
		time.Sleep(time.Until(cycle.Add(10 * time.Millisecond)))
	}
	<-genDone
	obs.end = time.Now()
	for _, f := range genFails {
		r.failOp("%s", f)
	}
	cpu1, err := proc.cpu()
	obs.cpu = cpu1 - cpu0
	return obs, err
}

// poll asks the service for every pending job and settles those it reports
// done or failed.
func (r *runner) poll(c *serveClient, pending map[string][]*jobObs, obs *stepObs) {
	for id, js := range pending {
		var sr serve.SubmitResponse
		t0 := time.Now()
		err := c.getJSON("/v1/jobs/"+id, &sr)
		obs.pollLat = append(obs.pollLat, time.Since(t0).Seconds())
		switch {
		case err != nil:
			r.failOp("poll %s: %v", id, err)
		case sr.Status == serve.StatusDone:
			for _, j := range js {
				j.lat, j.result = time.Since(j.due).Seconds(), sr.Result
			}
		case sr.Status == serve.StatusFailed:
			r.failOp("job %s failed: %s", id, sr.Error)
		default:
			continue
		}
		delete(pending, id)
	}
}

// mergeObs pools the samples of several steps.
func mergeObs(steps []*stepObs) *stepObs {
	all := &stepObs{}
	for _, o := range steps {
		all.jobs = append(all.jobs, o.jobs...)
		all.late = append(all.late, o.late...)
		all.submitLat = append(all.submitLat, o.submitLat...)
		all.cacheLat = append(all.cacheLat, o.cacheLat...)
		all.pollLat = append(all.pollLat, o.pollLat...)
		all.queueLen = append(all.queueLen, o.queueLen...)
		all.running = append(all.running, o.running...)
	}
	return all
}

// runServeMix drives a child ldmo-serve with bursts of the open-loop mix,
// checks sampled results against in-process runs of the same specs, and
// reports the service's latency, throughput and cost.
func runServeMix(r *runner) error {
	type served struct {
		arr      []arrival
		dir      string
		predPath string
		proc     *child
	}
	release := func(s served) {
		if s.proc != nil {
			s.proc.stop()
		}
		os.RemoveAll(s.dir)
	}
	s, err := timedSetup(r, func() (served, error) {
		t0 := time.Now()
		s := served{arr: schedule(r.seed, r.sz.serveRate, r.seconds)}
		t1 := time.Now()
		pred, err := r.trainPredictor()
		r.inputsS, r.predictorS = t1.Sub(t0).Seconds(), time.Since(t1).Seconds()
		if err != nil {
			return s, err
		}
		if s.dir, err = os.MkdirTemp(r.work, "serve-"); err != nil {
			return s, err
		}
		s.predPath = filepath.Join(s.dir, "predictor")
		if err := pred.Save(s.predPath); err != nil {
			return s, err
		}
		s.proc, err = startServe(r.serveBin, s.dir, s.predPath, r.workers)
		return s, err
	}, release)
	defer release(s)
	if err != nil {
		return err
	}
	r.emitSetup()

	c := newServeClient(s.proc.base, r.workers)
	defer c.hc.CloseIdleConnections()
	for _, fast := range []bool{true, false} {
		sr, code, err := c.submit(jobSpec(warmupSeed(r.seed), 0, fast))
		if err != nil || code != http.StatusAccepted {
			return fmt.Errorf("warm-up submit: HTTP %d %v", code, err)
		}
		if err := c.await(sr.ID, 60*time.Second); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}

	// The schedule is offered in bursts of consecutive arrivals until the
	// measured phase is over. Between bursts the service drains and the
	// yardstick times the host; the mean of the speeds measured right before
	// and right after a burst scales its times to the reference host.
	var steps []*stepObs
	var scales []speed
	start := time.Now()
	s.proc.settle()
	before := r.hostSpeed()
	for _, arr := range bursts(s.arr, r.sz.serveBurst) {
		if len(steps) > 0 && time.Since(start) >= r.seconds {
			break
		}
		obs, err := r.openLoop(c, s.proc, arr, arr[len(arr)-1].At)
		if err != nil {
			return err
		}
		s.proc.settle()
		after := r.hostSpeed()
		steps, scales = append(steps, obs), append(scales, before.mid(after))
		before = after
	}
	var stats serve.Stats
	if err := c.getJSON("/v1/stats", &stats); err != nil {
		return err
	}
	all := mergeObs(steps)
	rd, loop, err := r.checkServed(all, s.predPath)
	if err != nil {
		return err
	}
	ru := s.proc.stop()

	var lat, secs, epeNM []float64
	cpu, wall, scaled := 0.0, 0.0, 0.0
	news := 0
	for k, obs := range steps {
		for _, j := range obs.jobs {
			r.rec.Attempted++
			lat = append(lat, j.lat*scales[k].wall)
			if j.Kind != "resubmit" && j.result != nil {
				news++
				secs = append(secs, j.result.Seconds)
				epeNM = append(epeNM, j.result.EPEMeanNM)
			}
		}
		d := obs.end.Sub(obs.start).Seconds()
		cpu += obs.cpu * scales[k].cpu
		wall += d
		scaled += d * scales[k].wall
	}
	if news == 0 {
		return fmt.Errorf("no job completed")
	}
	p50, p75 := r.emitLatency(lat)
	r.rec.set("layouts_per_s", "1/s", float64(news)/scaled, news)
	r.rec.set("cpu_s_per_layout", "s", cpu/float64(news), news)
	r.emitQualityOf(secs, epeNM)
	if ru != nil {
		r.rec.set("peak_rss_mb", "MB", float64(ru.Maxrss)/1024, 1)
	}
	late99, _ := nearestRank(all.late, 0.99)
	if late99 > 0.020 {
		r.logf("WARNING: the generator ran late: p99 %.1f ms", late99*1e3)
	}
	r.logf("%d arrivals in %d bursts, %d new jobs in %.2fs: p50 %.3fs p75 %.3fs (reference-host seconds), generator p99 late %.1f ms",
		len(lat), len(steps), news, wall, p50, p75, late99*1e3)
	if r.tr == nil {
		return nil
	}

	set := func(name, unit string, xs []float64) {
		v, _ := nearestRank(xs, 0.5)
		r.rec.set(name, unit, v, len(xs))
	}
	set("serve.submit_p50_s", "s", all.submitLat)
	set("serve.cache_hit_p50_s", "s", all.cacheLat)
	set("serve.poll_p50_s", "s", all.pollLat)
	qlen := mean(all.queueLen)
	r.rec.set("serve.queue_len_mean", "count", qlen, len(all.queueLen))
	r.rec.set("serve.running_mean", "count", mean(all.running), len(all.running))
	// Little's law: the mean wait in the queue is its mean length over the
	// rate at which jobs enter it.
	r.rec.set("serve.queue_wait_s", "s", qlen/(float64(len(all.submitLat))/wall), len(all.queueLen))
	r.rec.set("serve.retries", "count", float64(stats.Retries), 1)
	r.rec.set("serve.requeued", "count", float64(stats.Requeued), 1)
	r.rec.set("bench.gen_late_p99_s", "s", late99, len(all.late))
	r.rec.set("bench.polls_per_job", "count", float64(len(all.pollLat))/float64(len(all.jobs)), len(all.jobs))
	// The child's Go runtime cannot be read from here; the in-process reruns
	// of its jobs stand in for it.
	r.emitProc(rd.alloc, rd.gcs, rd.layouts)
	return r.emitLayers(flowConfig(8, r.workers), rd, loop, len(loop))
}

// checkServed reruns the first sz.serveSample finished new jobs of each
// raster in process, with the predictor the service loaded, and checks that
// the service returned the same masks and printed image. A traced run
// attributes the flow's layers on the 8 nm reruns, whose spans it returns.
func (r *runner) checkServed(obs *stepObs, predPath string) (rd *redriveStats, spans map[int]bool, err error) {
	pred, err := model.Load(predPath)
	if err != nil {
		return nil, nil, err
	}
	var ts *timedScorer
	var scorer core.Scorer = pred
	if r.tr != nil {
		ts = &timedScorer{p: pred, tr: r.tr}
		scorer = ts
		rd = &redriveStats{}
	}
	for _, fast := range []bool{true, false} {
		var ls []layout.Layout
		var want [][3]string
		for _, j := range obs.jobs {
			if len(ls) == r.sz.serveSample || j.Kind == "resubmit" || j.Spec.Fast != fast || j.result == nil {
				continue
			}
			l, err := j.Spec.Layout()
			if err != nil {
				return nil, nil, err
			}
			l.Name = j.id
			ls = append(ls, l)
			want = append(want, [3]string{j.result.M1SHA256, j.result.M2SHA256, j.result.PrintedSHA256})
		}
		cfg := flowConfig(4, r.workers)
		attr := (*redriveStats)(nil)
		if fast {
			cfg, attr = flowConfig(8, r.workers), rd
		}
		// The service warmed its own caches; this process warms its own
		// before the reruns are timed.
		warm, err := jobSpec(warmupSeed(r.seed), 0, fast).Layout()
		if err != nil {
			return nil, nil, err
		}
		if _, err := core.NewFlow(pred, cfg).RunContext(context.Background(), warm); err != nil {
			return nil, nil, fmt.Errorf("warm-up: %w", err)
		}
		s := r.rerun(core.NewFlow(scorer, cfg), cfg, ls, want, ts, "the service's result", attr)
		if fast {
			spans = s
		}
	}
	return rd, spans, nil
}
