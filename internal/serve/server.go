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
	"sync"
	"sync/atomic"
	"time"

	"ldmo/internal/core"
	"ldmo/internal/grid"
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
	// Workers sizes the executor: max(2, Workers) slots each claim the next
	// queued job as soon as their last one settles, so prediction coalesces
	// across jobs even on a single-core host (CPU use stays bounded by
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
	// generator candidate order (the no-predictor ablation). It is fixed for
	// the server's life: NewServer reads its Digest once for the job IDs,
	// and the server serializes every prediction it makes with it.
	Scorer core.Scorer
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
	// scorer is cfg.Scorer behind the server's one prediction lock (nil
	// without a scorer); fp is cfg.Scorer's provenance string for jobID.
	scorer core.Scorer
	fp     string

	mu   sync.Mutex
	jobs map[string]*jobEntry
	// running counts the jobs in StatusRunning; it changes only under mu,
	// in setStatus.
	running atomic.Int64

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
		fp:    fingerprint(cfg.Scorer),
		jobs:  map[string]*jobEntry{},
		wake:  make(chan struct{}, 1),
		done:  make(chan struct{}),
	}
	if cfg.Scorer != nil {
		s.scorer = &lockedScorer{sc: cfg.Scorer}
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
			s.setStatus(e, StatusQueued)
			e.state.StartedUnix = 0
			if err := s.store.PutState(e.state); err != nil {
				return err
			}
		}
	}
	return nil
}

// setStatus moves a job to status st and keeps the running count. Callers
// hold s.mu.
func (s *Server) setStatus(e *jobEntry, st Status) {
	if e.state.Status == StatusRunning {
		s.running.Add(-1)
	}
	if st == StatusRunning {
		s.running.Add(1)
	}
	e.state.Status = st
}

// Stats snapshots the counters.
func (s *Server) Stats() Stats {
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
		Running:   int(s.running.Load()),
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
	// simulator would refuse, or with more patterns than decomposition
	// generation handles in about a second — fails the submission with 400
	// instead of failing (or exhausting memory or time in) the job later.
	l, err := spec.Layout()
	if err == nil && len(l.Patterns) > layout.MaxPatterns {
		err = fmt.Errorf("%d patterns, above the %d limit", len(l.Patterns), layout.MaxPatterns)
	}
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
			s.setStatus(e, StatusQueued)
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

// run is the executor: one long-lived run of the slot scheduler, each slot
// claiming the next queued job as soon as its last one has settled, until
// the server's context ends.
func (s *Server) run() {
	defer close(s.done)
	core.RunStream(s.runCtx, max(2, s.cfg.Workers), s.claim)
}

// claim hands a free slot its next job: fair round-robin across clients,
// marked running and persisted before it runs, with its own flow config and
// the server's scorer. With nothing to claim it waits for the executor's
// wake-up or for ctx to end, and reports false once ctx has ended.
func (s *Server) claim(ctx context.Context) (core.StreamJob, bool) {
	for {
		if ctx.Err() != nil {
			return core.StreamJob{}, false
		}
		if id, spec, ok := s.popJob(); ok {
			l, err := spec.Layout()
			if err != nil {
				// The spec materialized at submission; one that stopped
				// doing so fails permanently.
				s.settleFailed(id, 0, fmt.Errorf("materialize layout: %w", err), nil)
				continue
			}
			flow := core.NewFlow(s.scorer, s.flowConfig(spec))
			return core.StreamJob{Flow: flow, Layout: l, Done: func(r core.PipeResult) {
				s.settle(id, l, flow, r.Res, r.Err)
			}}, true
		}
		select {
		case <-s.wake:
		case <-ctx.Done():
			return core.StreamJob{}, false
		}
	}
}

// popJob pops the next queued job and marks it running. When jobs remain
// queued it passes the wake-up on, so another idle slot claims one too.
func (s *Server) popJob() (string, JobSpec, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		id, ok := s.queue.Pop()
		if !ok {
			return "", JobSpec{}, false
		}
		e, ok := s.jobs[id]
		if !ok || e.state.Status != StatusQueued {
			continue // removed or already settled; skip
		}
		s.setStatus(e, StatusRunning)
		e.state.StartedUnix = time.Now().Unix()
		if err := s.store.PutState(e.state); err != nil {
			s.logf("serve: persist running %s: %v", id, err)
		}
		if s.queue.Len() > 0 {
			s.pokeExecutor()
		}
		return id, e.spec, true
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
	if d := spec.deadline(); d > 0 {
		cfg.Budget.Wall = d
	}
	return cfg
}

// jobID derives the dedupe identifier for a spec under THIS server's engine:
// the spec's content hash plus — when the server's predictor exposes a
// checkpoint digest — that digest. Retraining the predictor then invalidates
// the dedupe cache instead of serving results computed by a stale engine; a
// server without a digestable predictor keeps the plain spec.ID(), so job
// IDs (and on-disk stores) from before the provenance mechanism stay valid.
func (s *Server) jobID(spec JobSpec) string {
	if s.fp == "" {
		return spec.ID()
	}
	h := sha256.New()
	h.Write(spec.canonicalJSON())
	h.Write([]byte{0})
	h.Write([]byte(s.fp))
	return "j-" + hex.EncodeToString(h.Sum(nil)[:8])
}

// fingerprint is the engine provenance string: the predictor's checkpoint
// digest. A scorer that does not expose a Digest (test fakes, ablation
// stubs) contributes nothing. A predictor's digest gob-encodes and hashes
// every weight, so NewServer computes it once.
func fingerprint(sc core.Scorer) string {
	if d, ok := sc.(interface{ Digest() string }); ok {
		return "scorer=" + d.Digest()
	}
	return ""
}

// lockedScorer serializes every prediction the server makes. Slots flush
// coalesced batches while a settling job's retries score on their own, and
// a model.Predictor is not safe for concurrent use.
type lockedScorer struct {
	mu sync.Mutex
	sc core.Scorer
}

func (l *lockedScorer) PredictBatch(imgs []*grid.Grid) []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sc.PredictBatch(imgs)
}

// PredictBatchInto keeps the scheduler's allocation-free flush path for a
// scorer that has one.
func (l *lockedScorer) PredictBatchInto(imgs []*grid.Grid, out []float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if bi, ok := l.sc.(interface {
		PredictBatchInto([]*grid.Grid, []float64)
	}); ok {
		bi.PredictBatchInto(imgs, out)
		return
	}
	copy(out, l.sc.PredictBatch(imgs))
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
		s.requeue(id)
		return
	}
	if terr := transientOutcome(res, err); terr == nil && err == nil {
		s.settleDone(id, res, 0, false, "")
		return
	}
	if s.runCtx.Err() != nil {
		// Transient failure, but no retries can run under a dead context.
		s.requeue(id)
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
		s.requeue(id)
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
	s.setStatus(e, StatusDone)
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
	s.setStatus(e, StatusFailed)
	e.state.Error = cause.Error()
	e.state.Result = partial
	e.state.FinishedUnix = time.Now().Unix()
	if err := s.store.PutState(e.state); err != nil {
		s.logf("serve: persist failed %s: %v", id, err)
	}
	s.nFailed.Add(1)
	s.logf("serve: job %s failed after %d retr%s: %v", id, retries, plural(retries, "y", "ies"), cause)
}

// requeue checkpoints a claimed-but-unfinished job back to queued (drain
// path); the next executor life picks it up.
func (s *Server) requeue(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.jobs[id]
	if !ok || e.state.Status != StatusRunning {
		return
	}
	s.setStatus(e, StatusQueued)
	e.state.StartedUnix = 0
	if err := s.store.PutState(e.state); err != nil {
		s.logf("serve: persist requeue %s: %v", id, err)
	}
	s.nRequeued.Add(1)
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
