// Command ldmo-serve is the long-running mask-optimization service: a JSON
// HTTP API accepting layout jobs (library cell, generator seed, GDS upload,
// or CSV), running the decompose -> predict -> ILT flow asynchronously on
// the pipelined scheduler, and serving job status and results. The executor
// runs max(2, workers) slots; each claims the next queued job (round-robin
// across clients) as soon as its last one has settled and scores that
// job's candidates in one predictor call of its own, the predictor
// running one call at a time.
//
// Usage:
//
//	ldmo-serve -addr :8347 -dir /var/lib/ldmo/jobs
//	ldmo-serve -model pred.gob -queue 128 -workers 8
//
// API:
//
//	POST /v1/jobs        submit  {"cell":"NAND3_X2"} | {"gen_seed":7} |
//	                             {"gds_b64":"..."} | {"csv":"..."}
//	                             + optional "fast", "deadline_ms",
//	                             "max_attempts", "name"
//	                     -> 202 accepted (job is durably queued)
//	                     -> 200 cached result (dedupe hit)
//	                     -> 429 + Retry-After when the queue is full
//	GET  /v1/jobs/{id}   job status + result
//	GET  /v1/jobs        job summaries
//	GET  /v1/stats       server counters
//	GET  /healthz        liveness (always 200 while the process runs)
//	GET  /readyz         readiness (503 while draining or saturated)
//
// Robustness: accepted jobs are sealed into artifact envelopes on disk, so a
// crash — including SIGKILL — loses nothing: on restart, queued and running
// jobs are requeued and recomputed to bit-identical results. SIGTERM drains
// gracefully: admission stops, running jobs checkpoint back to queued, and
// the process exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ldmo/internal/artifact"
	"ldmo/internal/model"
	"ldmo/internal/runx"
	"ldmo/internal/serve"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8347", "listen address")
	dir := flag.String("dir", "ldmo-jobs", "job store directory")
	modelPath := flag.String("model", "", "trained predictor file (optional)")
	queueCap := flag.Int("queue", 64, "admission queue capacity (full queue sheds with 429)")
	workers := flag.Int("workers", 0, "executor slots are max(2, workers) (0 = GOMAXPROCS / LDMO_WORKERS)")
	jobDeadline := flag.Duration("job-deadline", 0, "default per-job wall budget (0 = unlimited)")
	candIters := flag.Int("cand-iters", 0, "per-candidate ILT iteration cap (0 = optimizer default)")
	retries := flag.Int("retries", 0, "attempts per job for transient failures (0 = 3)")
	retryAfter := flag.Duration("retry-after", time.Second, "Retry-After hint on 429 responses")
	quiet := flag.Bool("q", false, "suppress operational logging")
	flag.Parse()

	cfg := serve.Config{
		Dir:      *dir,
		QueueCap: *queueCap,
		Workers:  *workers,
		Budget: runx.Budget{
			Wall:           *jobDeadline,
			CandidateIters: *candIters,
		},
		Retry:      runx.RetryConfig{Attempts: *retries},
		RetryAfter: *retryAfter,
	}
	if !*quiet {
		cfg.Log = os.Stderr
	}
	if *modelPath != "" {
		pred, err := model.Load(*modelPath)
		if err != nil {
			if artifact.Rejected(err) {
				fatalf("load model: %v\n  the file is damaged or from an incompatible build — re-export it with ldmo-train", err)
			}
			fatalf("load model: %v", err)
		}
		cfg.Scorer = pred
	}

	s, err := serve.NewServer(cfg)
	if err != nil {
		fatalf("%v", err)
	}
	s.Start()

	httpSrv := &http.Server{Addr: *addr, Handler: s.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	if !*quiet {
		fmt.Fprintf(os.Stderr, "ldmo-serve: listening on %s, job store %s\n", *addr, *dir)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatalf("%v", err)
		}
	case got := <-sig:
		if !*quiet {
			fmt.Fprintf(os.Stderr, "ldmo-serve: %v: draining (admission stopped, checkpointing running jobs)\n", got)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "ldmo-serve: drain: %v\n", err)
			httpSrv.Close()
			os.Exit(1)
		}
		httpSrv.Shutdown(ctx)
		if !*quiet {
			fmt.Fprintln(os.Stderr, "ldmo-serve: drained; all accepted jobs are durable")
		}
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ldmo-serve: "+format+"\n", args...)
	os.Exit(1)
}
