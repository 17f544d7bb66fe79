package main

import (
	"math"
	"math/cmplx"
	"testing"
)

// The yardstick's work is a real FFT: fft1 agrees with the direct DFT.
func TestFFT1IsTheDFT(t *testing.T) {
	const n = 16
	g := newFFTGrid(n)
	a := make([]complex128, n)
	for i := range a {
		a[i] = complex(float64(i%5), float64(i%3))
	}
	want := make([]complex128, n)
	for k := range want {
		for j, x := range a {
			want[k] += x * cmplx.Exp(complex(0, -2*math.Pi*float64(j*k)/n))
		}
	}
	fft1(a, g.tw)
	for k := range a {
		if cmplx.Abs(a[k]-want[k]) > 1e-9 {
			t.Fatalf("bin %d: %v, want %v", k, a[k], want[k])
		}
	}
}
