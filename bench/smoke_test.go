package main

import (
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// toySizes shrink every workload to a few layouts: no training (the
// untrained TinyConfig predictor everywhere), three layouts, and bursts of
// three jobs for 3 s.
func toySizes() sizes {
	return sizes{
		setupReps: 1,
		cellsLib:  3,
		batchPool: 3, batch: 3,
		r18Pool: 3,
		verify:  3, recheck: 1,
		serveRate: 2, serveBurst: 3, serveSample: 1, serveDrain: 20 * time.Second,
		microBudget: time.Millisecond,
	}
}

// TestSmoke runs every workload end to end at toy size, traced, and checks
// that the run is correct and that it measured every metric BENCHMARK.json
// names, end-to-end and per-layer, in the declared unit and from at least one
// sample.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload and builds ldmo-serve")
	}
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "ldmo-serve")
	if out, err := exec.Command("go", "build", "-o", bin, "ldmo/cmd/ldmo-serve").CombinedOutput(); err != nil {
		t.Fatalf("build ldmo-serve: %v\n%s", err, out)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			run, ok := workloads[w.Name]
			if !ok {
				t.Fatalf("BENCHMARK.json names workload %s, which the benchmark does not run", w.Name)
			}
			seconds := time.Second
			if w.Name == "serve-mix" {
				seconds = 3 * time.Second
			}
			r, err := runWorkload(run, runConfig{workload: w.Name, seed: 1, seconds: seconds, trace: true,
				serveBin: bin, work: t.TempDir(), sz: toySizes()})
			if err != nil {
				t.Fatal(err)
			}
			if !r.rec.Correct || r.rec.Failed != 0 || r.rec.Attempted == 0 {
				t.Fatalf("correct %v, %d of %d failed: %v", r.rec.Correct, r.rec.Failed, r.rec.Attempted, r.rec.Failures)
			}
			check := func(names []string) {
				for _, name := range names {
					m, ok := r.rec.Metrics[name]
					switch {
					case !ok:
						t.Errorf("%s not measured", name)
					case m.Samples < 1:
						t.Errorf("%s: no samples", name)
					}
				}
			}
			var names []string
			for _, ms := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
				names = append(names, ms.Name)
				if m := r.rec.Metrics[ms.Name]; m.Unit != ms.Unit {
					t.Errorf("%s in %q, declared in %s", ms.Name, m.Unit, ms.Unit)
				}
			}
			check(names)
			// The layers only one workload exercises go to its record.
			check(map[string][]string{
				"batch-8nm": {"core.gen_busy_s", "core.score_wait_s", "core.images_per_flush", "core.occupancy"},
				"serve-mix": {"serve.submit_p50_s", "serve.poll_p50_s", "serve.queue_wait_s", "bench.gen_late_p99_s"},
			}[w.Name])
			for _, trace := range []bool{false, true} {
				r.rec.Trace = trace
				if _, err := r.rec.resultLine(spec); err != nil {
					t.Errorf("result line (trace %v): %v", trace, err)
				}
			}
		})
	}
}
