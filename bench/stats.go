package main

import (
	"math"
	"sort"
)

// nearestRank returns the p-quantile of xs by the nearest-rank method — the
// smallest sample with at least p of the samples at or below it — and the
// number of samples strictly beyond that rank. A percentile is only worth
// reporting when beyond is at least ten.
func nearestRank(xs []float64, p float64) (v float64, beyond int) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := sortedCopy(xs)
	rank := int(math.Ceil(p * float64(len(s))))
	rank = min(max(rank, 1), len(s))
	return s[rank-1], len(s) - rank
}

// quartiles returns the first, second and third quartile of xs the way
// Python's statistics.quantiles(xs, n=4) computes them (the "exclusive"
// method), so spreads quoted from the benchmark match the ones computed over
// its result lines. A single sample is its own quartiles.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	const n = 4
	m := len(s) + 1
	var q [3]float64
	for i := 1; i < n; i++ {
		j := min(max(i*m/n, 1), len(s)-1)
		delta := i*m - j*n
		q[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q[0], q[1], q[2]
}

// median is the second quartile.
func median(xs []float64) float64 {
	_, q2, _ := quartiles(xs)
	return q2
}

// mean is the arithmetic mean; 0 for no samples.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
