package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"
)

// Verdicts of a comparison, per metric and workload.
const (
	improved    = "improved"
	withinBound = "within bound"
	regressed   = "regressed"
	unresolved  = "unresolved"
)

// verdict compares the runs of a change, b, with the runs of its parent, a,
// on one end-to-end metric:
//
//   - improved: every run of b reads better than every run of a; or b wins at
//     least nine tenths of the pairs (a[i], b[i]), ties counting for neither,
//     and the medians differ, in b's favour, by more than a's quartile spread;
//   - unresolved: otherwise, when the quartile spread of either side, as a
//     share of its median, is wider than the bound, so the bound cannot be
//     told from noise;
//   - regressed: otherwise, when b's median is worse than a's by more than
//     the bound, as a share of a's median;
//   - within bound: everything else.
func verdict(ms metricSpec, a, b []float64) string {
	if len(a) == 0 || len(b) == 0 {
		return unresolved
	}
	better := func(x, y float64) bool { // x reads better than y
		if ms.Better == "higher" {
			return x > y
		}
		return x < y
	}
	a1, aMed, a3 := quartiles(a)
	b1, bMed, b3 := quartiles(b)
	sa, sb := sortedCopy(a), sortedCopy(b)
	if ms.Better == "higher" && sb[0] > sa[len(sa)-1] || ms.Better != "higher" && sb[len(sb)-1] < sa[0] {
		return improved
	}
	pairs, wins := min(len(a), len(b)), 0
	for i := 0; i < pairs; i++ {
		if better(b[i], a[i]) {
			wins++
		}
	}
	if float64(wins) >= 0.9*float64(pairs) && better(bMed, aMed) && math.Abs(bMed-aMed) > a3-a1 {
		return improved
	}
	if aMed == 0 || (a3-a1)/math.Abs(aMed) > ms.Bound || (b3-b1)/math.Abs(bMed) > ms.Bound {
		return unresolved
	}
	worse := (bMed - aMed) / math.Abs(aMed)
	if ms.Better == "higher" {
		worse = -worse
	}
	if worse > ms.Bound {
		return regressed
	}
	return withinBound
}

// loadRecords reads a file holding one record or a JSON array of them.
func loadRecords(path string) ([]record, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var recs []record
	if err := json.Unmarshal(b, &recs); err == nil {
		return recs, nil
	}
	var one record
	if err := json.Unmarshal(b, &one); err != nil {
		return nil, fmt.Errorf("%s: neither a record nor a list of records: %w", path, err)
	}
	return []record{one}, nil
}

// values collects one metric of one workload's untraced records, ordered by
// seed so that runs on the same seed pair up.
func values(recs []record, workload, name string) []float64 {
	var rs []record
	for _, r := range recs {
		if r.Workload == workload && !r.Trace {
			if _, ok := r.Metrics[name]; ok {
				rs = append(rs, r)
			}
		}
	}
	sort.SliceStable(rs, func(i, j int) bool { return rs[i].Seed < rs[j].Seed })
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.Metrics[name].Value
	}
	return out
}

// runCompare prints one row per workload and end-to-end metric with both
// sides' medians and quartiles and the verdict; it exits 1 when any metric
// regressed.
func runCompare(spec benchSpec, pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := loadRecords(pathA)
	if err == nil {
		var b []record
		if b, err = loadRecords(pathB); err == nil {
			return printComparison(spec, a, b, stdout)
		}
	}
	fmt.Fprintln(stderr, "bench:", err)
	return 2
}

func printComparison(spec benchSpec, a, b []record, stdout io.Writer) int {
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA median [q1, q3]\tB median [q1, q3]\tchange\tbound\tverdict")
	code := 0
	for _, w := range spec.Workloads {
		for _, ms := range spec.EndToEnd {
			va, vb := values(a, w.Name, ms.Name), values(b, w.Name, ms.Name)
			v := verdict(ms, va, vb)
			if v == regressed {
				code = 1
			}
			a1, aMed, a3 := quartiles(va)
			b1, bMed, b3 := quartiles(vb)
			change := 0.0
			if aMed != 0 {
				change = (bMed - aMed) / math.Abs(aMed)
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g [%.4g, %.4g] (n=%d)\t%.4g [%.4g, %.4g] (n=%d)\t%+.1f%%\t%.0f%%\t%s\n",
				w.Name, ms.Name, aMed, a1, a3, len(va), bMed, b1, b3, len(vb), 100*change, 100*ms.Bound, v)
		}
	}
	tw.Flush()
	return code
}
