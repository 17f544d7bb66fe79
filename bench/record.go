package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"syscall"

	"ldmo/internal/fft"
)

// metricSpec is one metric as BENCHMARK.json declares it. Bound and Better are
// set for end-to-end metrics only.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is the part of BENCHMARK.json the benchmark reads: the
// workloads, which metrics a run must report, in which units, and by how much
// each may worsen.
type benchSpec struct {
	Workloads []workloadSpec `json:"workloads"`
	EndToEnd  []metricSpec   `json:"end_to_end"`
	PerLayer  []metricSpec   `json:"per_layer"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

func loadSpec(path string) (benchSpec, error) {
	var s benchSpec
	b, err := os.ReadFile(path)
	if err != nil {
		return s, fmt.Errorf("read benchmark definition: %w", err)
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("parse %s: %w", path, err)
	}
	return s, nil
}

// metric is one measured value with its unit and the number of samples it
// summarizes (0 for a metric the workload does not exercise).
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// host describes the machine a record was taken on. Records from hosts with
// different fields are not comparable.
type host struct {
	GOMAXPROCS  int      `json:"gomaxprocs"`
	NumCPU      int      `json:"numcpu"`
	CPUFeatures []string `json:"cpu_features"`
	ASM         bool     `json:"fft_asm"`
	GoVersion   string   `json:"go_version"`
	Constrained bool     `json:"constrained"`
}

func currentHost() host {
	return host{
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
		CPUFeatures: fft.CPUFeatures(),
		ASM:         fft.ASMEnabled(),
		GoVersion:   runtime.Version(),
		Constrained: runtime.NumCPU() == 1,
	}
}

// record is everything one run measured: the result line's fields, every
// metric with its sample count, the host, and the checks that failed.
type record struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   int               `json:"seconds"`
	Trace     bool              `json:"trace"`
	Host      host              `json:"host"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *record) set(name, unit string, v float64, samples int) {
	r.Metrics[name] = metric{Value: v, Unit: unit, Samples: samples}
}

// lineMetric and resultLine are the exact shape of the benchmark's last line
// of standard output.
type lineMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]lineMetric `json:"metrics"`
}

// resultLine selects the metrics the spec asks of this run — the end-to-end
// ones untraced, the per-layer ones traced — and fails when one is missing,
// carries another unit, or is not a finite number.
func (r *record) resultLine(spec benchSpec) (resultLine, error) {
	want := spec.EndToEnd
	if r.Trace {
		want = spec.PerLayer
	}
	line := resultLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed,
		Metrics: make(map[string]lineMetric, len(want))}
	for _, ms := range want {
		m, ok := r.Metrics[ms.Name]
		switch {
		case !ok:
			return line, fmt.Errorf("metric %s was not measured", ms.Name)
		case m.Unit != ms.Unit:
			return line, fmt.Errorf("metric %s measured in %s, declared in %s", ms.Name, m.Unit, ms.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			return line, fmt.Errorf("metric %s is %v", ms.Name, m.Value)
		}
		line.Metrics[ms.Name] = lineMetric{Value: m.Value, Unit: m.Unit}
	}
	return line, nil
}

// cpuSeconds is the user plus system CPU time this process has used.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

// peakRSSMB is the largest resident set this process has had, in MiB
// (Linux reports ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}
