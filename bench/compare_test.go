package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "latency_p50_s", Better: "lower", Bound: 0.1}
	higher := metricSpec{Name: "layouts_per_s", Better: "higher", Bound: 0.1}
	parent := []float64{1.00, 1.02, 0.98, 1.01, 0.99, 1.00, 1.03, 0.97, 1.01, 0.99}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	for _, tc := range []struct {
		name string
		ms   metricSpec
		a, b []float64
		want string
	}{
		{"every run better", lower, parent, scale(parent, 0.5), improved},
		{"same runs", lower, parent, parent, withinBound},
		{"slightly worse", lower, parent, scale(parent, 1.05), withinBound},
		{"worse beyond the bound", lower, parent, scale(parent, 1.2), regressed},
		{"higher is better: lower throughput regresses", higher, parent, scale(parent, 0.8), regressed},
		{"higher is better: more throughput improves", higher, parent, scale(parent, 1.5), improved},
		{
			// Nine of ten pairs won and the medians differ by more than the
			// parent's quartile spread, though one run of the change is the
			// slowest of all.
			"nine tenths of pairs", lower,
			parent,
			[]float64{0.94, 0.96, 0.92, 0.95, 0.93, 0.94, 0.97, 0.91, 0.95, 1.5},
			improved,
		},
		{
			// Better medians but too few pairs won is not a gain.
			"too few pairs won", lower,
			parent,
			[]float64{0.97, 1.03, 0.96, 1.02, 0.97, 0.98, 1.04, 0.96, 0.99, 0.98},
			withinBound,
		},
		{
			"spread wider than the bound", lower,
			[]float64{0.7, 1.3, 0.8, 1.2, 1.0, 0.75, 1.25, 0.9, 1.1, 1.0},
			[]float64{0.7, 1.5, 0.8, 1.4, 1.2, 0.8, 1.5, 1.0, 1.3, 1.1},
			unresolved,
		},
		{"no runs", lower, parent, nil, unresolved},
	} {
		if got := verdict(tc.ms, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: verdict = %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestPrintComparison(t *testing.T) {
	spec := benchSpec{
		Workloads: []workloadSpec{{Name: "cells-4nm"}, {Name: "batch-8nm"}},
		EndToEnd: []metricSpec{
			{Name: "latency_p50_s", Unit: "s", Better: "lower", Bound: 0.1},
			{Name: "layouts_per_s", Unit: "1/s", Better: "higher", Bound: 0.1},
		},
	}
	recs := func(lat, rate float64) []record {
		var out []record
		for seed := int64(1); seed <= 5; seed++ {
			for _, w := range []string{"cells-4nm", "batch-8nm"} {
				f := 1 + 0.01*float64(seed%3)
				out = append(out, record{Workload: w, Seed: seed, Metrics: map[string]metric{
					"latency_p50_s": {Value: lat * f, Unit: "s"},
					"layouts_per_s": {Value: rate / f, Unit: "1/s"},
				}})
			}
		}
		// A traced record is not an end-to-end measurement and is ignored.
		return append(out, record{Workload: "cells-4nm", Seed: 9, Trace: true, Metrics: map[string]metric{
			"latency_p50_s": {Value: 100, Unit: "s"}}})
	}
	var out bytes.Buffer
	if code := printComparison(spec, recs(1, 10), recs(1, 10), &out); code != 0 {
		t.Errorf("identical sets: exit %d, want 0\n%s", code, out.String())
	}
	if n := strings.Count(out.String(), withinBound); n != 4 {
		t.Errorf("identical sets: %d rows within bound, want one per workload and metric (4)\n%s", n, out.String())
	}
	out.Reset()
	if code := printComparison(spec, recs(1, 10), recs(1.5, 10), &out); code != 1 {
		t.Errorf("slower change: exit %d, want 1\n%s", code, out.String())
	}
	if n := strings.Count(out.String(), regressed); n != 2 {
		t.Errorf("slower change: %d rows regressed, want 2\n%s", n, out.String())
	}
}
