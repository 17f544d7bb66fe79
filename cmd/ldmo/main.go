// Command ldmo runs the deep-learning-driven LDMO flow (paper Fig. 2) on a
// library cell or a generated layout and reports the optimized masks'
// printability.
//
// Usage:
//
//	ldmo -cell NAND3_X2                  # run a library cell
//	ldmo -cell list                      # list library cells
//	ldmo -gen 7                          # run generated layout with seed 7
//	ldmo -model pred.gob -cell DFF_X1    # use a trained predictor
//	ldmo -cell BUF_X1 -out out/          # dump PGM images of masks/print
//	ldmo -cell BUF_X1 -fast              # coarse 8nm raster
//	ldmo -file my.gds                    # run a layout from a GDSII/CSV file
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"

	"ldmo"
	"ldmo/internal/artifact"
	"ldmo/internal/core"
	"ldmo/internal/gds"
	"ldmo/internal/layout"
	"ldmo/internal/model"
)

func main() {
	cellName := flag.String("cell", "", "library cell name, or 'list'")
	genSeed := flag.Int64("gen", -1, "generate a random layout with this seed instead of -cell")
	filePath := flag.String("file", "", "layout file (.gds or .csv) instead of -cell")
	modelPath := flag.String("model", "", "trained predictor file (optional)")
	outDir := flag.String("out", "", "directory for PGM image dumps (optional)")
	fast := flag.Bool("fast", false, "coarse 8nm raster")
	deadline := flag.Duration("deadline", 0, "return the best result found after this wall time, e.g. 90s")
	candDeadline := flag.Duration("cand-deadline", 0, "per-candidate ILT wall budget before falling through")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *cellName == "list" {
		for i, name := range ldmo.CellNames() {
			fmt.Printf("%2d  %s\n", i+1, name)
		}
		return
	}

	var l ldmo.Layout
	var err error
	switch {
	case *cellName != "":
		l, err = ldmo.Cell(*cellName)
	case *filePath != "":
		l, err = loadLayoutFile(*filePath)
	case *genSeed >= 0:
		l, err = layout.Generate(rand.New(rand.NewSource(*genSeed)), layout.DefaultGenParams())
	default:
		fatalf("need -cell NAME, -file PATH, or -gen SEED (try -cell list)")
	}
	if err != nil {
		fatalf("%v", err)
	}

	var scorer core.Scorer
	if *modelPath != "" {
		pred, err := model.Load(*modelPath)
		if err != nil {
			if artifact.Rejected(err) {
				fatalf("load model: %v\n  the file is damaged or from an incompatible build — re-export it with ldmo-train", err)
			}
			fatalf("load model: %v", err)
		}
		scorer = pred
	}

	cfg := ldmo.DefaultFlowConfig()
	if *fast {
		cfg.ILT.Litho.Resolution = 8
	}
	cfg.Budget = ldmo.Budget{Wall: *deadline, CandidateWall: *candDeadline}
	flow := ldmo.NewFlow(scorer, cfg)
	res, err := flow.RunContext(ctx, l)
	if err != nil {
		if res.Interrupted {
			fatalf("interrupted before any usable result: %v", err)
		}
		fatalf("%v", err)
	}

	fmt.Printf("layout        %s (%d patterns)\n", l.Name, len(l.Patterns))
	fmt.Printf("candidates    %d generated, %d attempted", res.Candidates, res.Attempts)
	if res.Forced {
		fmt.Printf(" (all aborted; forced best-effort run)")
	}
	fmt.Println()
	if res.Interrupted {
		fmt.Printf("NOTE          run interrupted (%v budget); reporting best state reached\n", *deadline)
	}
	if res.ScorerFallback {
		fmt.Printf("NOTE          predictor failed (%v); fell back to generator order\n", res.ScorerErr)
	}
	fmt.Printf("decomposition %s\n", res.Chosen.Key())
	fmt.Printf("EPE           %d violations (max %.1fnm, mean %.1fnm)\n",
		res.ILT.EPE.Violations, res.ILT.EPE.MaxAbs, res.ILT.EPE.MeanAbs)
	fmt.Printf("L2 error      %.1f\n", res.ILT.L2)
	fmt.Printf("violations    %d bridges, %d missing, %d extra\n",
		res.ILT.Violations.Bridges, res.ILT.Violations.Missing, res.ILT.Violations.Extra)
	fmt.Printf("model time    %.1fs (DS %.1fs, MO %.1fs)\n",
		res.Seconds, res.Clock.PhaseSeconds(core.PhaseDS), res.Clock.PhaseSeconds(core.PhaseMO))

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fatalf("%v", err)
		}
		base := strings.ToLower(l.Name)
		dumps := map[string]*ldmo.Grid{
			"target": l.Rasterize(cfg.ILT.Litho.Resolution),
			"m1":     res.ILT.M1,
			"m2":     res.ILT.M2,
			"print":  res.ILT.Printed,
		}
		for tag, img := range dumps {
			path := filepath.Join(*outDir, fmt.Sprintf("%s_%s.pgm", base, tag))
			if err := img.SavePGM(path, 0, 1); err != nil {
				fatalf("save %s: %v", path, err)
			}
			fmt.Printf("wrote %s\n", path)
		}
	}
}

// loadLayoutFile reads a layout from a .gds library (first structure) or a
// dataset .csv file.
func loadLayoutFile(path string) (ldmo.Layout, error) {
	f, err := os.Open(path)
	if err != nil {
		return ldmo.Layout{}, err
	}
	defer f.Close()
	if strings.HasSuffix(strings.ToLower(path), ".gds") {
		layouts, err := gds.Read(f)
		if err != nil {
			return ldmo.Layout{}, fmt.Errorf("%s: %w", path, err)
		}
		if len(layouts) == 0 {
			return ldmo.Layout{}, fmt.Errorf("%s contains no structures", path)
		}
		return layouts[0], nil
	}
	name := filepath.Base(path)
	name = strings.TrimSuffix(name, filepath.Ext(name))
	return layout.ReadCSV(f, name)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ldmo: "+format+"\n", args...)
	os.Exit(1)
}
