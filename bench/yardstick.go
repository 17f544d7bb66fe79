package main

import (
	"math"
	"math/cmplx"
	"sync"
	"time"
)

// yardstickS is what the yardstick takes on the reference host at its usual
// speed, in wall seconds and in CPU seconds per worker. The benchmark reports
// every end-to-end time in reference-host seconds: a measured wall time
// scaled by yardstickS over the yardstick's wall time measured around it,
// and a measured CPU time by the yardstick's reference CPU time over its
// measured one. A host that takes the cores away from the process slows the
// yardstick's wall time but not its CPU time, and so leaves CPU times
// unscaled.
//
// The reference host shares its memory system with other machines, and
// their load makes it up to 1.6 times slower for tens of seconds at a time.
// A request's time and the yardstick's slow down together: over ten minutes
// of batch-8nm requests, the median latency of 20 s windows ranged over a
// factor of 1.57 measured and 1.08 scaled.
const yardstickS = 0.070

// yardstick is a fixed amount of work shaped like the program's own: one
// 1024x1024 complex two-dimensional FFT per worker, all workers at once, each
// over 16 MiB, so that it misses the core's caches like the litho
// convolutions do. It is written here, not taken from the fft package, so
// that no change to the program moves it.
type yardstick struct {
	grids []*fftGrid
}

func newYardstick(workers int) *yardstick {
	y := &yardstick{}
	for i := 0; i < workers; i++ {
		y.grids = append(y.grids, newFFTGrid(1024))
	}
	return y
}

// measure runs the yardstick once and returns its wall time and the CPU
// time the process used meanwhile, in seconds.
func (y *yardstick) measure() (wall, cpu float64) {
	cpu0 := cpuSeconds()
	t0 := time.Now()
	var wg sync.WaitGroup
	for _, g := range y.grids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g.transform()
		}()
	}
	wg.Wait()
	return time.Since(t0).Seconds(), cpuSeconds() - cpu0
}

// fftGrid is an n x n complex grid with the twiddles of an n-point radix-2
// FFT.
type fftGrid struct {
	n       int
	data    []complex128
	col, tw []complex128
}

func newFFTGrid(n int) *fftGrid {
	g := &fftGrid{n: n, data: make([]complex128, n*n), col: make([]complex128, n), tw: make([]complex128, n/2)}
	for k := range g.tw {
		g.tw[k] = cmplx.Exp(complex(0, -2*math.Pi*float64(k)/float64(n)))
	}
	return g
}

// transform fills the grid with a fixed pattern and transforms its rows,
// then its columns.
func (g *fftGrid) transform() {
	n := g.n
	for i := range g.data {
		g.data[i] = complex(float64(i%7), 0)
	}
	for y := 0; y < n; y++ {
		fft1(g.data[y*n:(y+1)*n], g.tw)
	}
	for x := 0; x < n; x++ {
		for y := 0; y < n; y++ {
			g.col[y] = g.data[y*n+x]
		}
		fft1(g.col, g.tw)
		for y := 0; y < n; y++ {
			g.data[y*n+x] = g.col[y]
		}
	}
}

// fft1 transforms a in place: bit-reversal permutation, then radix-2
// butterflies with the twiddles tw of len(a)/2 points.
func fft1(a, tw []complex128) {
	n := len(a)
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		if i < j {
			a[i], a[j] = a[j], a[i]
		}
	}
	for size := 2; size <= n; size <<= 1 {
		step := n / size
		for s := 0; s < n; s += size {
			for k := 0; k < size/2; k++ {
				u, v := a[s+k], a[s+k+size/2]*tw[k*step]
				a[s+k], a[s+k+size/2] = u+v, u-v
			}
		}
	}
}
