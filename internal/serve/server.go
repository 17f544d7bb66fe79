package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ldmo/internal/core"
	"ldmo/internal/ilt"
	"ldmo/internal/layout"
	"ldmo/internal/litho"
	"ldmo/internal/par"
	"ldmo/internal/runx"
)

// Config parameterizes the server. The zero value (plus a Dir) is usable.
type Config struct {
	// Dir is the job store directory (required).
	Dir string
	// QueueCap bounds the admission queue; submissions beyond it are shed
	// with 429. <=0 selects 64.
	QueueCap int
	// Wave bounds how many queued jobs one pipelined flow invocation carries;
	// <=0 selects max(2, Workers).
	Wave int
	// Workers bounds flow parallelism (the pipelined scheduler may run more
	// goroutines to assemble coalescing waves; CPU use stays bounded by
	// GOMAXPROCS). <=0 selects par.Workers().
	Workers int
	// Budget is the default per-job budget; a job's deadline_ms overrides
	// the wall limit. The zero value is unlimited.
	Budget runx.Budget
	// Retry bounds transient-failure retries per job (scorer panics,
	// numerical faults). Attempts counts total attempts including the first;
	// the zero value selects runx defaults (3 attempts).
	Retry runx.RetryConfig
	// Scorer is the optional trained predictor; nil degrades every job to
	// generator candidate order (the no-predictor ablation).
	Scorer core.Scorer
	// WarmStarter is the optional learned ILT warm-start net, applied to jobs
	// that set spec.Warm. nil runs every job cold regardless of the spec.
	WarmStarter ilt.Initializer
	// RetryAfter is the hint sent with 429 responses; <=0 selects 1s.
	RetryAfter time.Duration
	// Log receives operational messages when non-nil.
	Log io.Writer
}

// Stats is a snapshot of the server's counters.
type Stats struct {
	Submitted int64 `json:"submitted"`
	Accepted  int64 `json:"accepted"`
	Shed      int64 `json:"shed"`
	CacheHits int64 `json:"cache_hits"`
	Done      int64 `json:"done"`
	Failed    int64 `json:"failed"`
	Retries   int64 `json:"retries"`
	Requeued  int64 `json:"requeued"`
	QueueLen  int   `json:"queue_len"`
	Running   int   `json:"running"`
	Draining  bool  `json:"draining"`
}

// Server is the mask-optimization service. Create with NewServer, start the
// executor with Start, mount Handler on an http.Server, and stop with Drain.
type Server struct {
	cfg   Config
	store *Store
	queue *fairQueue

	mu   sync.Mutex
	jobs map[string]*jobEntry

	draining  atomic.Bool
	wake      chan struct{}
	runCtx    context.Context
	runCancel context.CancelFunc
	done      chan struct{}
	started   atomic.Bool

	nSubmitted, nAccepted, nShed, nCacheHits atomic.Int64
	nDone, nFailed, nRetries, nRequeued      atomic.Int64
}

// jobEntry is the in-memory record of one job; state is guarded by Server.mu
// and mirrored to the store on every transition.
type jobEntry struct {
	spec  JobSpec
	state State
}

// NewServer opens the job store, recovers every previously accepted job
// (requeuing queued/running ones, quarantining damaged envelopes), and
// returns a server ready to Start. No goroutines run yet.
func NewServer(cfg Config) (*Server, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("serve: Config.Dir is required")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = par.Workers()
	}
	if cfg.Wave <= 0 {
		cfg.Wave = max(2, cfg.Workers)
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	store, err := OpenStore(cfg.Dir)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:   cfg,
		store: store,
		queue: newFairQueue(cfg.QueueCap),
		jobs:  map[string]*jobEntry{},
		wake:  make(chan struct{}, 1),
		done:  make(chan struct{}),
	}
	s.runCtx, s.runCancel = context.WithCancel(context.Background())

	rep, err := store.Recover()
	if err != nil {
		return nil, err
	}
	for _, q := range rep.Quarantined {
		s.logf("serve: recovery quarantined damaged envelope -> %s", q)
	}
	for _, id := range rep.Lost {
		s.logf("serve: recovery LOST job %s: spec envelope damaged (quarantined)", id)
	}
	requeued := 0
	for _, rj := range rep.Jobs {
		s.jobs[rj.State.ID] = &jobEntry{spec: rj.Spec, state: rj.State}
		if rj.Requeued {
			// Recovery ignores queue capacity: these jobs were accepted in a
			// previous life and must not be shed now.
			s.queue.Push(rj.State.Client, rj.State.ID)
			requeued++
		}
	}
	if len(rep.Jobs) > 0 || len(rep.Lost) > 0 {
		s.logf("serve: recovered %d job(s), requeued %d, quarantined %d envelope(s), lost %d",
			len(rep.Jobs), requeued, len(rep.Quarantined), len(rep.Lost))
	}
	s.nRequeued.Add(int64(requeued))
	return s, nil
}

// Start launches the executor. Safe to call once.
func (s *Server) Start() {
	if s.started.Swap(true) {
		return
	}
	go s.run()
}

// Drain stops the server gracefully: stop admitting (submissions get 503,
// readyz flips unready), cancel the executor, wait for it to exit, and
// checkpoint any still-running jobs back to queued so a later process
// resumes them with zero loss. ctx bounds the wait.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	s.runCancel()
	if s.started.Load() {
		select {
		case <-s.done:
		case <-ctx.Done():
			return fmt.Errorf("serve: drain: %w", ctx.Err())
		}
	}
	// Belt and braces: anything still marked running goes back to queued on
	// disk. The executor's own drain path normally did this already.
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range s.jobs {
		if e.state.Status == StatusRunning {
			e.state.Status = StatusQueued
			e.state.StartedUnix = 0
			if err := s.store.PutState(e.state); err != nil {
				return err
			}
		}
	}
	return nil
}

// Stats snapshots the counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	running := 0
	for _, e := range s.jobs {
		if e.state.Status == StatusRunning {
			running++
		}
	}
	s.mu.Unlock()
	return Stats{
		Submitted: s.nSubmitted.Load(),
		Accepted:  s.nAccepted.Load(),
		Shed:      s.nShed.Load(),
		CacheHits: s.nCacheHits.Load(),
		Done:      s.nDone.Load(),
		Failed:    s.nFailed.Load(),
		Retries:   s.nRetries.Load(),
		Requeued:  s.nRequeued.Load(),
		QueueLen:  s.queue.Len(),
		Running:   running,
		Draining:  s.draining.Load(),
	}
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Log != nil {
		fmt.Fprintf(s.cfg.Log, format+"\n", args...)
	}
}

// ---------------------------------------------------------------- HTTP API

// SubmitResponse is the body of POST /v1/jobs and GET /v1/jobs/{id}.
type SubmitResponse struct {
	State
	// Cached reports a dedupe hit: the job had already completed and the
	// stored result is returned without recomputation.
	Cached bool `json:"cached,omitempty"`
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("GET /readyz", s.handleReady)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// clientOf identifies the submitting client for fair scheduling: the
// X-LDMO-Client header when present, else the remote host.
func clientOf(r *http.Request) string {
	if c := r.Header.Get("X-LDMO-Client"); c != "" {
		return c
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	s.nSubmitted.Add(1)
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	var spec JobSpec
	body := http.MaxBytesReader(w, r.Body, 8<<20)
	if err := json.NewDecoder(body).Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, "decode job spec: %v", err)
		return
	}
	if err := spec.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, "invalid job spec: %v", err)
		return
	}
	// Materialize now so a malformed GDS/CSV — or a layout whose raster the
	// simulator would refuse — fails the submission with 400 instead of
	// failing (or exhausting memory in) the job later.
	l, err := spec.Layout()
	if err == nil {
		p := s.flowConfig(spec).ILT.Litho
		err = litho.CheckRaster(l.Window.W()/p.Resolution, l.Window.H()/p.Resolution, p)
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid layout: %v", err)
		return
	}
	id := s.jobID(spec)
	client := clientOf(r)

	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.jobs[id]; ok {
		switch e.state.Status {
		case StatusDone:
			s.nCacheHits.Add(1)
			writeJSON(w, http.StatusOK, SubmitResponse{State: e.state, Cached: true})
		case StatusFailed:
			// Resubmitting a failed job requeues it: the failure may have
			// been environmental, and the client explicitly asked again.
			if !s.queue.Push(client, id) {
				s.shed(w)
				return
			}
			e.state.Status = StatusQueued
			e.state.Error = ""
			e.state.Result = nil
			e.state.StartedUnix, e.state.FinishedUnix = 0, 0
			if err := s.store.PutState(e.state); err != nil {
				s.queue.Remove(client, id)
				writeError(w, http.StatusInternalServerError, "persist job: %v", err)
				return
			}
			s.pokeExecutor()
			writeJSON(w, http.StatusAccepted, SubmitResponse{State: e.state})
		default: // queued or running: idempotent resubmit
			writeJSON(w, http.StatusAccepted, SubmitResponse{State: e.state})
		}
		return
	}

	// New job. Reserve a queue slot first (admission control), then make the
	// job durable — a 202 means the spec and queued state are on disk.
	if !s.queue.Push(client, id) {
		s.shed(w)
		return
	}
	state := State{
		ID:            id,
		Client:        client,
		Status:        StatusQueued,
		SubmittedUnix: time.Now().Unix(),
	}
	err = s.store.PutSpec(id, spec)
	if err == nil {
		err = s.store.PutState(state)
	}
	if err != nil {
		s.queue.Remove(client, id)
		writeError(w, http.StatusInternalServerError, "persist job: %v", err)
		return
	}
	s.jobs[id] = &jobEntry{spec: spec, state: state}
	s.nAccepted.Add(1)
	s.pokeExecutor()
	writeJSON(w, http.StatusAccepted, SubmitResponse{State: state})
}

// shed refuses a submission because the queue is full: 429 plus a
// Retry-After hint — the degradation the bounded queue buys.
func (s *Server) shed(w http.ResponseWriter) {
	s.nShed.Add(1)
	secs := int(s.cfg.RetryAfter / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	writeError(w, http.StatusTooManyRequests, "job queue full (%d); retry after %ds", s.queue.Len(), secs)
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	e, ok := s.jobs[id]
	var state State
	if ok {
		state = e.state
	}
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	writeJSON(w, http.StatusOK, SubmitResponse{State: state})
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	out := make([]State, 0, len(s.jobs))
	for _, e := range s.jobs {
		st := e.state
		st.Result = nil // summaries only; fetch the job for its result
		out = append(out, st)
	}
	s.mu.Unlock()
	// Deterministic listing order: submission time, then ID.
	sortStates(out)
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	switch {
	case s.draining.Load():
		writeError(w, http.StatusServiceUnavailable, "draining")
	case s.queue.Full():
		writeError(w, http.StatusServiceUnavailable, "saturated")
	default:
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, "ready\n")
	}
}

// ---------------------------------------------------------------- executor

// pokeExecutor nudges the run loop; non-blocking.
func (s *Server) pokeExecutor() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// run is the executor loop: pop fair waves of queued jobs and carry each
// wave through the pipelined flow scheduler until drained.
func (s *Server) run() {
	defer close(s.done)
	for {
		if s.runCtx.Err() != nil {
			return
		}
		ids := s.popWave()
		if len(ids) == 0 {
			select {
			case <-s.wake:
			case <-s.runCtx.Done():
				return
			}
			continue
		}
		s.runWave(ids)
	}
}

// popWave claims up to Wave queued jobs (fair round-robin across clients)
// and marks them running.
func (s *Server) popWave() []string {
	var ids []string
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(ids) < s.cfg.Wave {
		id, ok := s.queue.Pop()
		if !ok {
			break
		}
		e, ok := s.jobs[id]
		if !ok || e.state.Status != StatusQueued {
			continue // removed or already settled; skip
		}
		e.state.Status = StatusRunning
		e.state.StartedUnix = time.Now().Unix()
		if err := s.store.PutState(e.state); err != nil {
			s.logf("serve: persist running %s: %v", id, err)
		}
		ids = append(ids, id)
	}
	return ids
}

// runWave executes claimed jobs: grouped by flow configuration, each group
// runs as ONE pipelined-scheduler invocation with coalesced prediction, then
// every member settles (possibly via individual retries).
func (s *Server) runWave(ids []string) {
	groups := map[string][]string{}
	var order []string
	s.mu.Lock()
	for _, id := range ids {
		k := s.jobs[id].spec.groupKey()
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], id)
	}
	s.mu.Unlock()

	for _, k := range order {
		group := groups[k]
		if s.runCtx.Err() != nil {
			s.requeue(group)
			continue
		}
		s.runGroup(group)
	}
}

// runGroup runs one same-config batch of jobs through Flow.RunPipelineCtx.
func (s *Server) runGroup(ids []string) {
	s.mu.Lock()
	spec0 := s.jobs[ids[0]].spec
	specs := make([]JobSpec, len(ids))
	for i, id := range ids {
		specs[i] = s.jobs[id].spec
	}
	s.mu.Unlock()

	flow := core.NewFlow(s.cfg.Scorer, s.flowConfig(spec0))

	// Materialize layouts; a spec that stopped materializing (it did at
	// submission) fails permanently.
	var runIDs []string
	var ls []layout.Layout
	for i, id := range ids {
		l, err := specs[i].Layout()
		if err != nil {
			s.settleFailed(id, 0, fmt.Errorf("materialize layout: %w", err), nil)
			continue
		}
		runIDs = append(runIDs, id)
		ls = append(ls, l)
	}
	if len(runIDs) == 0 {
		return
	}

	results, _ := flow.RunPipelineCtx(s.runCtx, ls, core.PipelineOptions{Workers: s.cfg.Workers})
	for i, id := range runIDs {
		s.settle(id, ls[i], flow, results[i].Res, results[i].Err)
	}
}

// flowConfig derives the core.Config for a job spec.
func (s *Server) flowConfig(spec JobSpec) core.Config {
	cfg := core.DefaultConfig()
	if spec.Fast {
		cfg.ILT.Litho.Resolution = 8
	}
	cfg.MaxAttempts = spec.MaxAttempts
	cfg.Workers = s.cfg.Workers
	cfg.Budget = s.cfg.Budget
	if spec.DeadlineMS > 0 {
		cfg.Budget.Wall = time.Duration(spec.DeadlineMS) * time.Millisecond
	}
	if spec.Warm {
		cfg.WarmStarter = s.cfg.WarmStarter
	}
	return cfg
}

// jobID derives the dedupe identifier for a spec under THIS server's engine:
// the spec's content hash plus — when the server carries learned components
// that expose a checkpoint digest — those digests. Retraining the predictor
// or the warm-start net then invalidates the dedupe cache instead of serving
// results computed by a stale engine; a server with no digestable components
// keeps the plain spec.ID(), so job IDs (and on-disk stores) from before the
// provenance mechanism stay valid.
func (s *Server) jobID(spec JobSpec) string {
	fp := s.fingerprint()
	if fp == "" {
		return spec.ID()
	}
	b, err := json.Marshal(spec)
	if err != nil {
		// A JobSpec is plain data; Marshal cannot fail on it.
		panic(fmt.Sprintf("serve: marshal spec: %v", err))
	}
	h := sha256.New()
	h.Write(b)
	h.Write([]byte{0})
	h.Write([]byte(fp))
	return "j-" + hex.EncodeToString(h.Sum(nil)[:8])
}

// fingerprint is the engine provenance string: the checkpoint digests of
// whichever learned components this server carries. Components that do not
// expose a Digest (test fakes, ablation stubs) contribute nothing.
func (s *Server) fingerprint() string {
	type digester interface{ Digest() string }
	var parts []string
	if d, ok := s.cfg.Scorer.(digester); ok {
		parts = append(parts, "scorer="+d.Digest())
	}
	if d, ok := s.cfg.WarmStarter.(digester); ok {
		parts = append(parts, "warm="+d.Digest())
	}
	return strings.Join(parts, " ")
}

// transientScorer marks a scorer fallback treated as transient: the
// prediction stage crashed, the flow degraded to generator order, and a
// retry may well get a healthy scorer back.
type transientScorer struct{ cause error }

func (e *transientScorer) Error() string {
	return fmt.Sprintf("transient scorer failure (degraded to generator order): %v", e.cause)
}
func (e *transientScorer) Unwrap() error { return e.cause }

// transientOutcome classifies one attempt: non-nil means the attempt should
// be retried (crash-shaped or numerical failures — not budget exhaustion,
// not malformed input).
func transientOutcome(res core.Result, err error) error {
	if err != nil {
		if runx.Interrupted(err) {
			return nil // budget spent; retrying would double-spend it
		}
		if _, ok := runx.AsPanic(err); ok {
			return err
		}
		if _, ok := runx.AsNumerical(err); ok {
			return err
		}
		return nil // permanent
	}
	if res.ScorerFallback {
		return &transientScorer{cause: res.ScorerErr}
	}
	return nil
}

// settle decides a job's fate from its first (pipelined) attempt, retrying
// transient failures individually under runx.Retry, and persists the final
// state. The full ladder, least to most severe:
//
//  1. clean result                       -> done;
//  2. transient failure, retry succeeds  -> done (Retries counts attempts);
//  3. retries exhausted, usable degraded
//     result from the flow's own ladder  -> done, Degraded, Error notes why;
//  4. no usable masks at all             -> failed (partial result attached
//     when one exists).
func (s *Server) settle(id string, l layout.Layout, flow *core.Flow, res core.Result, err error) {
	if s.runCtx.Err() != nil && (err != nil || res.Interrupted) {
		// The server is dying, not the job: an interrupted or errored result
		// under a dead server context is shutdown truncation, not a job
		// outcome. Put the job back for the next life, which recomputes it
		// in full — never persist shutdown-shaped bytes.
		s.requeue([]string{id})
		return
	}
	if terr := transientOutcome(res, err); terr == nil && err == nil {
		s.settleDone(id, res, 0, false, "")
		return
	}
	if s.runCtx.Err() != nil {
		// Transient failure, but no retries can run under a dead context.
		s.requeue([]string{id})
		return
	}

	retries := 0
	rcfg := s.cfg.Retry
	rcfg.Retryable = func(e error) bool {
		var ts *transientScorer
		if errors.As(e, &ts) {
			return true
		}
		if _, ok := runx.AsPanic(e); ok {
			return true
		}
		if _, ok := runx.AsNumerical(e); ok {
			return true
		}
		return false
	}
	rerr := runx.Retry(s.runCtx, rcfg, func(attempt int) error {
		if attempt > 1 {
			retries++
			res, err = flow.RunContext(s.runCtx, l)
		}
		if terr := transientOutcome(res, err); terr != nil {
			return terr
		}
		return err // nil on success; permanent/interrupted otherwise
	})
	s.nRetries.Add(int64(retries))
	if rerr == nil {
		s.settleDone(id, res, retries, false, "")
		return
	}
	if s.runCtx.Err() != nil && (err != nil || res.Interrupted) {
		// Shutdown landed during the retries: same rule as above — requeue
		// rather than persist truncated state.
		s.requeue([]string{id})
		return
	}
	if err == nil {
		// The flow itself always returned a (degraded) result — e.g. a sticky
		// scorer fault left every attempt on generator order. Accept it:
		// this is the flow ladder's output, marked Degraded.
		s.settleDone(id, res, retries, true, rerr.Error())
		return
	}
	if runx.Interrupted(err) && usable(res) {
		// Per-job budget exhausted mid-run with partial masks: that is a
		// result (Interrupted flag set), not a failure.
		s.settleDone(id, res, retries, false, "")
		return
	}
	var partial *Result
	if usable(res) {
		partial = resultOf(res)
		partial.Retries = retries
	}
	s.settleFailed(id, retries, err, partial)
}

// usable reports whether a flow result carries masks worth returning.
func usable(res core.Result) bool { return res.ILT.M1 != nil }

func (s *Server) settleDone(id string, res core.Result, retries int, degraded bool, note string) {
	r := resultOf(res)
	r.Retries = retries
	r.Degraded = degraded
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.jobs[id]
	if !ok {
		return
	}
	e.state.Status = StatusDone
	e.state.Result = r
	e.state.Error = note
	e.state.FinishedUnix = time.Now().Unix()
	if err := s.store.PutState(e.state); err != nil {
		s.logf("serve: persist done %s: %v", id, err)
	}
	s.nDone.Add(1)
}

func (s *Server) settleFailed(id string, retries int, cause error, partial *Result) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.jobs[id]
	if !ok {
		return
	}
	e.state.Status = StatusFailed
	e.state.Error = cause.Error()
	e.state.Result = partial
	e.state.FinishedUnix = time.Now().Unix()
	if err := s.store.PutState(e.state); err != nil {
		s.logf("serve: persist failed %s: %v", id, err)
	}
	s.nFailed.Add(1)
	s.logf("serve: job %s failed after %d retr%s: %v", id, retries, plural(retries, "y", "ies"), cause)
}

// requeue checkpoints claimed-but-unfinished jobs back to queued (drain and
// crash paths); the next executor life picks them up.
func (s *Server) requeue(ids []string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, id := range ids {
		e, ok := s.jobs[id]
		if !ok || e.state.Status != StatusRunning {
			continue
		}
		e.state.Status = StatusQueued
		e.state.StartedUnix = 0
		if err := s.store.PutState(e.state); err != nil {
			s.logf("serve: persist requeue %s: %v", id, err)
		}
		s.nRequeued.Add(1)
	}
}

func plural(n int, one, many string) string {
	if n == 1 {
		return one
	}
	return many
}

// sortStates orders job summaries by submission time, then ID.
func sortStates(states []State) {
	sort.Slice(states, func(a, b int) bool {
		if states[a].SubmittedUnix != states[b].SubmittedUnix {
			return states[a].SubmittedUnix < states[b].SubmittedUnix
		}
		return states[a].ID < states[b].ID
	})
}
