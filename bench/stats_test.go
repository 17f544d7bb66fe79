package main

import "testing"

func TestNearestRank(t *testing.T) {
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[len(hundred)-1-i] = float64(i + 1) // reversed: the input order must not matter
	}
	for _, tc := range []struct {
		xs         []float64
		p          float64
		want       float64
		wantBeyond int
	}{
		{hundred, 0.50, 50, 50},
		{hundred, 0.75, 75, 25},
		{hundred, 0.90, 90, 10},
		{hundred, 0.99, 99, 1},
		{hundred, 1.00, 100, 0},
		{hundred, 0.001, 1, 99},
		{[]float64{3, 1, 2}, 0.5, 2, 1},
		{[]float64{3, 1, 2, 4}, 0.5, 2, 2},
		{[]float64{7}, 0.9, 7, 0},
		{nil, 0.5, 0, 0},
	} {
		got, beyond := nearestRank(tc.xs, tc.p)
		if got != tc.want || beyond != tc.wantBeyond {
			t.Errorf("nearestRank(%d samples, %v) = %v, %d beyond; want %v, %d",
				len(tc.xs), tc.p, got, beyond, tc.want, tc.wantBeyond)
		}
	}
}

// The quartiles must be Python's statistics.quantiles(xs, n=4), which is how
// spreads over the benchmark's result lines are computed.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2, 3, 4, 5}, [3]float64{1.5, 3, 4.5}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{5, 1, 4, 2, 3, 9, 7}, [3]float64{2, 4, 7}},
		{[]float64{4}, [3]float64{4, 4, 4}},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if got := [3]float64{q1, q2, q3}; got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}
