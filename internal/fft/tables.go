package fft

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
)

// twiddles holds the precomputed constants of one transform length n: the
// bit-reversal permutation and the first half of the unit circle, sampled
// directly with Sincos per index (not by the multiplicative recurrence the
// old transform used, whose rounding error grows with n). The radix-2
// butterfly at stage size s indexes the table with stride n/s, so one table
// serves every stage.
//
// Tables are immutable after construction and shared freely across
// goroutines; tablesFor caches them per size, so repeated plans of the same
// geometry — the steady state of an ILT run — never recompute a twiddle.
type twiddles struct {
	n   int
	rev []int32      // bit-reversal permutation of 0..n-1
	fwd []complex128 // fwd[k] = exp(-2*pi*i*k/n), k < n/2
	inv []complex128 // inv[k] = exp(+2*pi*i*k/n), k < n/2

	// stgFwd/stgInv are the vector-friendly twiddle layout: the stage with
	// half-size h reads fwd with stride n/(2h), so its h constants are
	// scattered across the table; here they are copied out per stage into
	// one contiguous run at offset h-1 (stages h = 1, 2, 4, … concatenate
	// to n-1 entries), which is what lets the butterfly kernel issue plain
	// 32-byte vector loads. The values are the same Sincos-sampled
	// constants bit for bit. Built only on hosts that can run the vector
	// engine; nil elsewhere.
	stgFwd []complex128
	stgInv []complex128
}

var (
	tableMu    sync.RWMutex
	tableCache = map[int]*twiddles{}
)

// tablesFor returns the cached twiddle/bit-reversal tables for an n-point
// transform, building them on first use. n must be a power of two.
func tablesFor(n int) *twiddles {
	tableMu.RLock()
	t := tableCache[n]
	tableMu.RUnlock()
	if t != nil {
		return t
	}
	tableMu.Lock()
	defer tableMu.Unlock()
	if t = tableCache[n]; t != nil {
		return t
	}
	t = newTwiddles(n)
	tableCache[n] = t
	return t
}

func newTwiddles(n int) *twiddles {
	if !IsPow2(n) {
		panic(fmt.Sprintf("fft: length %d is not a power of two", n))
	}
	t := &twiddles{n: n, rev: make([]int32, n)}
	if n == 1 {
		return t
	}
	logn := bits.Len(uint(n)) - 1
	for i := 1; i < n; i++ {
		t.rev[i] = t.rev[i>>1]>>1 | int32((i&1)<<(logn-1))
	}
	half := n / 2
	t.fwd = make([]complex128, half)
	t.inv = make([]complex128, half)
	for k := 0; k < half; k++ {
		s, c := math.Sincos(2 * math.Pi * float64(k) / float64(n))
		t.fwd[k] = complex(c, -s)
		t.inv[k] = complex(c, s)
	}
	if haveFFTASM && n >= 4 {
		t.stgFwd = stageLayout(t.fwd, n)
		t.stgInv = stageLayout(t.inv, n)
	}
	return t
}

// stageLayout copies the strided per-stage twiddle reads of tab into the
// contiguous vector layout: stage half-size h occupies out[h-1 : 2h-1] with
// out[h-1+j] = tab[j * n/(2h)].
func stageLayout(tab []complex128, n int) []complex128 {
	out := make([]complex128, n-1)
	for half := 1; half <= n/2; half <<= 1 {
		step := n / (2 * half)
		dst := out[half-1 : 2*half-1]
		for j := range dst {
			dst[j] = tab[j*step]
		}
	}
	return out
}
