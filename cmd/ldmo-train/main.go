// Command ldmo-train builds a training set with the paper's sampling
// pipeline (SIFT + k-medoids layout sampling, MST + 3-wise decomposition
// sampling, ILT labeling) and trains the printability predictor.
//
// Usage:
//
//	ldmo-train -o pred.gob                       # default CPU-scale run
//	ldmo-train -o pred.gob -pool 200 -clusters 12 -per 4 -epochs 40
//	ldmo-train -o pred.gob -paper                # paper constants (slow)
//	ldmo-train -o pred.gob -random               # random-sampling baseline
//	ldmo-train -o pred.gob -checkpoint ckpt/     # persist progress; Ctrl-C safe
//	ldmo-train -o pred.gob -checkpoint ckpt/ -resume
//
// With -checkpoint, labeled-layout shards and the training trajectory are
// written atomically as they complete; SIGINT/SIGTERM (or -deadline) stops
// the run at the next safe point, and a later invocation with -resume picks
// up where it left off, producing a model bit-identical to an uninterrupted
// run.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"

	"ldmo/internal/artifact"
	"ldmo/internal/layout"
	"ldmo/internal/model"
	"ldmo/internal/prof"
	"ldmo/internal/runx"
	"ldmo/internal/sampling"
)

func main() {
	out := flag.String("o", "predictor.gob", "output model file")
	poolSize := flag.Int("pool", 120, "generated layout pool size")
	clusters := flag.Int("clusters", 12, "k-medoids cluster count (paper: 50)")
	perCluster := flag.Int("per", 4, "layouts drawn per cluster (paper: 5)")
	epochs := flag.Int("epochs", 40, "training epochs")
	batch := flag.Int("batch", 16, "batch size")
	lr := flag.Float64("lr", 1e-3, "Adam learning rate")
	seed := flag.Int64("seed", 1, "random seed")
	workers := flag.Int("workers", 0, "parallel labeling lanes (0 = GOMAXPROCS / LDMO_WORKERS)")
	paper := flag.Bool("paper", false, "use the paper's published sampling constants (slow)")
	random := flag.Bool("random", false, "random-sampling baseline instead of the paper pipeline")
	noAugment := flag.Bool("no-augment", false, "disable dihedral augmentation")
	ckptDir := flag.String("checkpoint", "", "directory for labeling shards and training state")
	resume := flag.Bool("resume", false, "continue from an existing -checkpoint directory")
	deadline := flag.Duration("deadline", 0, "stop (checkpointing if enabled) after this wall time, e.g. 30m")
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

	var log *os.File
	if !*quiet {
		log = os.Stderr
	}

	var shardDir, trainCkpt string
	if *ckptDir != "" {
		shardDir = filepath.Join(*ckptDir, "shards")
		trainCkpt = filepath.Join(*ckptDir, "train.ckpt")
		if !*resume && checkpointExists(shardDir, trainCkpt) {
			fatalf("checkpoint directory %s already holds state; pass -resume to continue it or remove it to start over", *ckptDir)
		}
		if *resume && *random {
			fatalf("-resume is not supported with -random (the baseline labels unsharded)")
		}
		if *resume {
			if reason := model.CheckpointStatus(trainCkpt); reason != "" {
				fmt.Fprintf(os.Stderr, "ldmo-train: warning: training checkpoint %s is not resumable (%s); training will start from epoch 0\n",
					trainCkpt, reason)
			}
		}
	} else if *resume {
		fatalf("-resume requires -checkpoint DIR")
	}

	pool, err := layout.GenerateSet(*seed, *poolSize, layout.DefaultGenParams())
	if err != nil {
		fatalf("generate pool: %v", err)
	}

	sc := sampling.DefaultConfig()
	if *paper {
		sc = sampling.PaperConfig()
	}
	sc.Clusters = *clusters
	sc.PerCluster = *perCluster
	sc.Seed = *seed
	sc.Workers = *workers

	var ds *model.Dataset
	if *random {
		// Match the paper pipeline's labeling budget.
		selected, err := sampling.SelectLayouts(pool, sc)
		if err != nil {
			fatalf("select: %v", err)
		}
		ref, _, err := sampling.BuildDatasetCtx(ctx, selected, sc, nil)
		if err != nil {
			exitInterruptible("budget probe", err, *ckptDir)
		}
		ds, _, err = sampling.BuildRandomDataset(pool, ref.Len(), sc, log)
		if err != nil {
			fatalf("random dataset: %v", err)
		}
	} else {
		selected, err := sampling.SelectLayouts(pool, sc)
		if err != nil {
			fatalf("select: %v", err)
		}
		sc.Checkpoint = shardDir
		if *resume && shardDir != "" {
			fmt.Fprintf(os.Stderr, "resuming: %d/%d layout shards already labeled\n",
				sampling.CheckpointShards(shardDir, len(selected)), len(selected))
		}
		fmt.Fprintf(os.Stderr, "selected %d representative layouts\n", len(selected))
		ds, _, err = sampling.BuildDatasetCtx(ctx, selected, sc, log)
		if err != nil {
			exitInterruptible("build dataset", err, *ckptDir)
		}
	}
	fmt.Fprintf(os.Stderr, "labeled %d samples\n", ds.Len())
	if !*noAugment {
		ds = ds.Augmented()
		fmt.Fprintf(os.Stderr, "augmented to %d samples\n", ds.Len())
	}

	pred, err := model.New(model.TinyConfig())
	if err != nil {
		fatalf("%v", err)
	}
	tc := model.DefaultTrainConfig()
	tc.Epochs = *epochs
	tc.BatchSize = *batch
	tc.LR = *lr
	tc.Seed = *seed
	tc.Log = log
	tc.DecayAt = (*epochs * 2) / 3
	tc.Checkpoint = trainCkpt
	hist, err := pred.TrainCtx(ctx, ds, tc)
	if err != nil {
		exitInterruptible("train", err, *ckptDir)
	}
	fmt.Fprintf(os.Stderr, "final loss %.4f\n", hist[len(hist)-1])
	if err := pred.Save(*out); err != nil {
		fatalf("save: %v", err)
	}
	fmt.Printf("wrote %s (%d parameters)\n", *out, pred.Net.ParamCount())
}

// checkpointExists reports whether a prior run left resumable state behind.
func checkpointExists(shardDir, trainCkpt string) bool {
	if entries, err := os.ReadDir(shardDir); err == nil && len(entries) > 0 {
		return true
	}
	_, err := os.Stat(trainCkpt)
	return err == nil
}

// exitInterruptible distinguishes a cancellation (state saved, resumable)
// from numerical divergence and from a genuine failure.
func exitInterruptible(stage string, err error, ckptDir string) {
	if runx.Interrupted(err) {
		if ckptDir != "" {
			fmt.Fprintf(os.Stderr, "ldmo-train: %s interrupted; progress saved under %s — rerun with -resume to continue\n",
				stage, ckptDir)
		} else {
			fmt.Fprintf(os.Stderr, "ldmo-train: %s interrupted (no -checkpoint, progress lost)\n", stage)
		}
		os.Exit(130)
	}
	if ne, ok := runx.AsNumerical(err); ok {
		fmt.Fprintf(os.Stderr, "ldmo-train: %s diverged: %v — try a lower -lr or a different -seed\n", stage, ne)
		os.Exit(2)
	}
	if artifact.Rejected(err) {
		fatalf("%s: %v\n  the artifact is damaged or from an incompatible build; remove it (or the -checkpoint dir) and rerun", stage, err)
	}
	fatalf("%s: %v", stage, err)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ldmo-train: "+format+"\n", args...)
	os.Exit(1)
}
