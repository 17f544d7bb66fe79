// Size-keyed pooled scratch for the GEMM engine, following the fft
// plan-cache pattern: one sync.Pool per power-of-two size class, registered
// in a shared map, so the packing buffers of steady-state hot paths never
// allocate.
package tensor

import (
	"math/bits"
	"sync"
)

var (
	bufMu    sync.RWMutex
	bufPools = map[int]*sync.Pool{}
)

// sizeClass rounds n up to a power of two so recycled buffers are reusable
// across nearby sizes instead of fragmenting the pool per exact length.
func sizeClass(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}

func poolFor(class int) *sync.Pool {
	bufMu.RLock()
	p := bufPools[class]
	bufMu.RUnlock()
	if p != nil {
		return p
	}
	bufMu.Lock()
	defer bufMu.Unlock()
	if p = bufPools[class]; p != nil {
		return p
	}
	p = &sync.Pool{New: func() any {
		s := make([]float64, class)
		return &s
	}}
	bufPools[class] = p
	return p
}

// getBuf returns a pooled float64 buffer with capacity >= n. Contents are
// unspecified; callers overwrite or zero what they read.
func getBuf(n int) *[]float64 {
	return poolFor(sizeClass(n)).Get().(*[]float64)
}

// putBuf recycles a buffer obtained from getBuf.
func putBuf(b *[]float64) {
	poolFor(sizeClass(cap(*b))).Put(b)
}
