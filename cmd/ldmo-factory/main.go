// Command ldmo-factory builds a labeled (layout, decomposition,
// optimized-mask, EPE) dataset corpus at scale: a supervisor shards the
// layout space across N worker processes (this same binary re-exec'd with
// -worker) that coordinate purely through the filesystem — lease-claimed
// shards, heartbeat reclaim, poison quarantine — and publishes the finished
// corpus under a sealed, content-addressed manifest.
//
// Usage:
//
//	ldmo-factory -dir corpus -count 200 -workers 8
//	ldmo-factory -dir corpus -resume              # continue after any crash
//	ldmo-factory -dir corpus -inprocess           # goroutine workers, no re-exec
//
// Robustness: every durable write is atomic and the build is crash-only — a
// SIGKILL'd worker (or supervisor) loses at most in-flight labeling work,
// and -resume converges to a corpus byte-identical to an undisturbed run. A
// layout that kills its worker -poison-k times is quarantined as
// shard_NNNNN.poison with the panic and stack recorded, so the build always
// terminates with an explicit poison list instead of crash-looping.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"syscall"
	"time"

	"ldmo/internal/factory"
	"ldmo/internal/layout"
	"ldmo/internal/runx"
	"ldmo/internal/sampling"
)

func main() {
	dir := flag.String("dir", "ldmo-corpus", "factory directory (spec, shards, manifest)")
	count := flag.Int("count", 50, "number of layouts to generate and label")
	seed := flag.Int64("seed", 7, "layout generator seed")
	workers := flag.Int("workers", 0, "worker processes (0 = GOMAXPROCS / LDMO_WORKERS)")
	resume := flag.Bool("resume", false, "continue an initialized factory directory")
	deadline := flag.Duration("deadline", 0, "overall wall budget (0 = unlimited)")
	poisonK := flag.Int("poison-k", 0, "worker deaths before a layout is quarantined (0 = 3)")
	fast := flag.Bool("fast", false, "few-iteration ILT labels (smoke-scale corpus)")
	inprocess := flag.Bool("inprocess", false, "run workers as goroutines instead of processes")
	workerMode := flag.Bool("worker", false, "internal: run as a factory worker (set by the supervisor)")
	quiet := flag.Bool("q", false, "suppress supervision logging")
	flag.Parse()

	log := os.Stderr
	if *quiet {
		log = nil
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *deadline)
		defer cancel()
	}

	if *workerMode {
		runWorker(ctx, log)
		return
	}

	pool, err := layout.GenerateSet(*seed, *count, layout.DefaultGenParams())
	if err != nil {
		fatalf("generate layouts: %v", err)
	}
	cfg := sampling.DefaultConfig()
	if *fast {
		cfg.ILT.MaxIters = 4
	}
	spec := factory.Spec{Layouts: pool, Sampling: cfg, PoisonK: *poisonK}

	self, err := os.Executable()
	if err != nil {
		fatalf("locate own binary: %v", err)
	}
	bcfg := factory.Config{
		Dir:     *dir,
		Spec:    spec,
		Workers: *workers,
		Resume:  *resume,
		Log:     log,
	}
	if !*inprocess {
		bcfg.WorkerCommand = func(dir string) *exec.Cmd {
			cmd := exec.Command(self, "-worker", "-q")
			cmd.Stderr = os.Stderr
			return cmd
		}
	}

	start := time.Now()
	rep, err := factory.Build(ctx, bcfg)
	if err != nil {
		if runx.Interrupted(err) {
			fmt.Fprintf(os.Stderr, "ldmo-factory: interrupted with %d/%d shards sealed; rerun with -resume to continue\n",
				rep.Sealed, rep.Layouts)
			os.Exit(130)
		}
		fatalf("%v", err)
	}
	fmt.Printf("corpus %s: %d layouts, %d sealed, %d poisoned, %d kept after dedupe (%d clusters)\n",
		*dir, rep.Layouts, rep.Sealed, len(rep.Poisoned), rep.Kept, rep.Clusters)
	fmt.Printf("supervision: %d reclaims, %d restarts, %d hung kills in %.1fs\n",
		rep.Reclaims, rep.Restarts, rep.HungKills, time.Since(start).Seconds())
	for _, i := range rep.Poisoned {
		p, err := factory.ReadPoison(*dir, i)
		if err != nil {
			fmt.Printf("poison shard %05d: record unreadable: %v\n", i, err)
			continue
		}
		fmt.Printf("poison shard %05d (%s): %d deaths, last: %s\n", i, p.Layout, p.Attempts, p.Reason)
	}
	fmt.Printf("manifest: %s\n", rep.ManifestPath)
}

// runWorker serves one worker process: the supervisor passes the factory
// directory and identity through the environment.
func runWorker(ctx context.Context, log *os.File) {
	dir := os.Getenv(factory.EnvWorkerDir)
	if dir == "" {
		fatalf("-worker requires %s in the environment", factory.EnvWorkerDir)
	}
	var sink io.Writer
	if log != nil {
		sink = log
	}
	err := factory.RunWorker(ctx, dir, os.Getenv(factory.EnvWorkerToken), sink)
	switch {
	case err == nil:
		os.Exit(0)
	case runx.Interrupted(err):
		os.Exit(130)
	default:
		fmt.Fprintf(os.Stderr, "ldmo-factory worker: %v\n", err)
		if _, ok := factory.AsCrash(err); ok {
			os.Exit(3) // the crash record is durably on disk
		}
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ldmo-factory: "+format+"\n", args...)
	os.Exit(1)
}
