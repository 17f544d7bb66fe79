// Command bench is the repository benchmark. It drives the ldmo flow only
// through its public entry points — core.Flow, the ldmo-serve HTTP API and the
// public functions of the layer packages — on one of four seeded workloads,
// checks that the outputs are right, and prints one JSON result line.
//
// Run it from the root of the repository through run.sh, which builds it and
// the ldmo-serve binary it drives:
//
//	bash bench/run.sh --workload cells-4nm --seed 1 --seconds 15 --trace 0
//	bash bench/run.sh --workload serve-mix --seed 3 --seconds 15 --trace 1 --out rec.json
//	bash bench/run.sh --compare bench/results/set1.json bench/results/set2.json
//
// See README.md for the workloads, the metrics and how to read a comparison.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed the workload's inputs are made from")
	seconds := fs.Int("seconds", 20, "length of the measured phase, in seconds")
	trace := fs.Int("trace", 0, "1 records spans and reports the per-layer metrics instead of the end-to-end ones")
	out := fs.String("out", "", "also write the full record to this file, and a traced run's spans next to it")
	serveBin := fs.String("serve-bin", ".bench_build/ldmo-serve", "ldmo-serve binary the serve-mix workload starts")
	work := fs.String("work", ".bench_build", "directory for the run's temporary files")
	compare := fs.Bool("compare", false, "compare two record sets instead of running: -compare A.json B.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two record files")
			return 2
		}
		return runCompare(spec, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "bench: need -workload (one of %s), -seconds >= 1 and -trace 0 or 1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}

	cfg := runConfig{
		workload: *name,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		serveBin: *serveBin,
		work:     *work,
		sz:       fullSizes(),
		log:      stderr,
	}
	r, err := runWorkload(w, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", *name, err)
		return 1
	}
	line, err := r.rec.resultLine(spec)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", *name, err)
		return 1
	}
	if *out != "" {
		if err := writeJSON(*out, r.rec); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		if r.tr != nil {
			if err := r.tr.write(strings.TrimSuffix(*out, ".json") + ".trace.json"); err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
		}
	}
	for _, f := range r.rec.Failures {
		fmt.Fprintln(stderr, "bench: FAILED:", f)
	}
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if !r.rec.Correct {
		return 1
	}
	return 0
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
