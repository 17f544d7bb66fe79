// Command ldmo-bench regenerates the paper's tables and figures on the
// reproduced system.
//
// Usage:
//
//	ldmo-bench -exp table1            # Table I (all four flows, 13 cells)
//	ldmo-bench -exp fig1b             # EPE convergence trajectories
//	ldmo-bench -exp fig1c             # DS/MO runtime split of [10]
//	ldmo-bench -exp fig7 -out figs/   # printed-image comparison + PGM dumps
//	ldmo-bench -exp fig8              # sampling-strategy comparison
//	ldmo-bench -exp ablation          # selection-policy ablation
//	ldmo-bench -exp parbench          # serial-vs-parallel OracleSelect,
//	                                  # emits BENCH_parallel.json
//	ldmo-bench -exp pipebench         # stage-at-a-time vs pipelined flow,
//	                                  # emits BENCH_pipeline.json
//	ldmo-bench -exp servebench        # job-service latency/throughput/shed
//	                                  # drill, emits BENCH_serve.json
//	ldmo-bench -exp factorybench      # dataset-factory scaling + chaos
//	                                  # drill, emits BENCH_factory.json
//	ldmo-bench -exp warmbench         # learned ILT warm-start cold-vs-warm
//	                                  # A/B, emits BENCH_warmstart.json
//	ldmo-bench -exp all               # everything
//
// Flags:
//
//	-fast          coarse raster + small training budget (CI mode)
//	-model PATH    use a predictor trained by ldmo-train instead of
//	               training one ad hoc (table1/fig7 only need it)
//	-seed N        seed for all stochastic stages
//	-out DIR       output directory for fig7 images / BENCH_*.json
//	-workers N     parallel worker lanes (0 = GOMAXPROCS, honoring
//	               LDMO_WORKERS)
//	-cpuprofile F  write a CPU profile of the run to F
//	-memprofile F  write a heap profile at exit to F
//	-q             suppress progress logging
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"

	"ldmo/internal/artifact"
	"ldmo/internal/experiments"
	"ldmo/internal/model"
	"ldmo/internal/prof"
	"ldmo/internal/runx"
)

func main() {
	exp := flag.String("exp", "all", "experiment: table1, fig1b, fig1c, fig7, fig8, ablation, parbench, pipebench, servebench, factorybench, warmbench, all")
	fast := flag.Bool("fast", false, "coarse raster and reduced training budget")
	modelPath := flag.String("model", "", "path to a trained predictor (optional)")
	seed := flag.Int64("seed", 1, "random seed")
	outDir := flag.String("out", "", "output directory for fig7 images and BENCH_*.json")
	workers := flag.Int("workers", 0, "parallel worker lanes (0 = GOMAXPROCS / LDMO_WORKERS)")
	deadline := flag.Duration("deadline", 0, "abandon remaining work after this wall time, e.g. 30m")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile at exit to this file")
	quiet := flag.Bool("q", false, "suppress progress output")
	flag.Parse()

	stopProf, err := prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		fatalf("%v", err)
	}
	defer stopProf()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *deadline)
		defer cancel()
	}

	opt := experiments.Options{Fast: *fast, Seed: *seed, Workers: *workers, Ctx: ctx}
	if !*quiet {
		opt.Log = os.Stderr
	}
	if *modelPath != "" {
		pred, err := model.Load(*modelPath)
		if err != nil {
			if artifact.Rejected(err) {
				fatalf("load model: %v\n  the file is damaged or from an incompatible build — re-export it with ldmo-train", err)
			}
			fatalf("load model: %v", err)
		}
		opt.Predictor = pred
	}

	run := func(name string) {
		if err := runExperiment(name, opt, *outDir, os.Stdout); err != nil {
			if runx.Interrupted(err) {
				fmt.Fprintf(os.Stderr, "ldmo-bench: %s interrupted: %v\n", name, err)
				os.Exit(130)
			}
			fatalf("%s: %v", name, err)
		}
	}
	switch *exp {
	case "all":
		for _, name := range []string{"table1", "fig1b", "fig1c", "fig7", "fig8"} {
			run(name)
			fmt.Println()
		}
	case "table1", "fig1b", "fig1c", "fig7", "fig8", "ablation", "parbench", "pipebench", "servebench", "factorybench", "warmbench":
		run(*exp)
	default:
		fatalf("unknown experiment %q", *exp)
	}
}

func runExperiment(name string, opt experiments.Options, outDir string, w io.Writer) error {
	switch name {
	case "table1":
		pred, err := experiments.TrainPredictor(opt)
		if err != nil {
			return err
		}
		t, err := experiments.RunTable1(pred, opt)
		if err != nil {
			return err
		}
		t.Render(w)
	case "fig1b":
		f, err := experiments.RunFig1b(opt)
		if err != nil {
			return err
		}
		f.Render(w)
	case "fig1c":
		f, err := experiments.RunFig1c(opt)
		if err != nil {
			return err
		}
		f.Render(w)
	case "fig7":
		pred, err := experiments.TrainPredictor(opt)
		if err != nil {
			return err
		}
		f, err := experiments.RunFig7(pred, opt, outDir)
		if err != nil {
			return err
		}
		f.Render(w)
	case "fig8":
		f, err := experiments.RunFig8(opt)
		if err != nil {
			return err
		}
		f.Render(w)
	case "ablation":
		pred, err := experiments.TrainPredictor(opt)
		if err != nil {
			return err
		}
		a, err := experiments.RunAblation(pred, opt)
		if err != nil {
			return err
		}
		a.Render(w)
	case "pipebench":
		b, err := experiments.RunPipelineBench(opt)
		if err != nil {
			return err
		}
		b.Render(w)
		path := "BENCH_pipeline.json"
		if outDir != "" {
			if err := os.MkdirAll(outDir, 0o755); err != nil {
				return err
			}
			path = filepath.Join(outDir, path)
		}
		if err := b.WriteJSON(path); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s\n", path)
	case "servebench":
		b, err := experiments.RunServeBench(opt)
		if err != nil {
			return err
		}
		b.Render(w)
		path := "BENCH_serve.json"
		if outDir != "" {
			if err := os.MkdirAll(outDir, 0o755); err != nil {
				return err
			}
			path = filepath.Join(outDir, path)
		}
		if err := b.WriteJSON(path); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s\n", path)
	case "factorybench":
		b, err := experiments.RunFactoryBench(opt)
		if err != nil {
			return err
		}
		b.Render(w)
		path := "BENCH_factory.json"
		if outDir != "" {
			if err := os.MkdirAll(outDir, 0o755); err != nil {
				return err
			}
			path = filepath.Join(outDir, path)
		}
		if err := b.WriteJSON(path); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s\n", path)
	case "warmbench":
		b, err := experiments.RunWarmBench(opt)
		if err != nil {
			return err
		}
		b.Render(w)
		path := "BENCH_warmstart.json"
		if outDir != "" {
			if err := os.MkdirAll(outDir, 0o755); err != nil {
				return err
			}
			path = filepath.Join(outDir, path)
		}
		if err := b.WriteJSON(path); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s\n", path)
	case "parbench":
		b, err := experiments.RunParallelBench(opt)
		if err != nil {
			return err
		}
		b.Render(w)
		path := "BENCH_parallel.json"
		if outDir != "" {
			if err := os.MkdirAll(outDir, 0o755); err != nil {
				return err
			}
			path = filepath.Join(outDir, path)
		}
		if err := b.WriteJSON(path); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s\n", path)
	}
	return nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ldmo-bench: "+format+"\n", args...)
	os.Exit(1)
}
