package fft

import "sync"

// Plans of the same geometry are interchangeable: their twiddle tables are
// already process-shared (tables.go), and everything else a Plan holds —
// padded geometry, engine flag — is immutable after construction. PlanFor
// extends the sharing to the Plan itself, so the many simulators of a
// pipelined flow (one per ILT lane per layout) stop rebuilding identical
// plans and kernel transforms per task.
var (
	planMu    sync.Mutex
	planCache = map[planKey]*Plan{}
)

type planKey struct{ w, h, kw, kh int }

// PlanFor returns the process-wide shared plan for the given convolution
// geometry, building it on first use.
//
// A shared plan's embedded scratch is reserved for TransformKernel; every
// other access must go through the *With methods with a caller-owned
// Scratch (NewScratch), which only read the plan's immutable state and are
// safe from any number of goroutines. The serial convenience methods
// (Forward, Convolve, Correlate, ApplySpec) are NOT safe on a shared plan.
func PlanFor(w, h, kw, kh int) *Plan {
	key := planKey{w, h, kw, kh}
	planMu.Lock()
	defer planMu.Unlock()
	if p := planCache[key]; p != nil {
		return p
	}
	p := NewPlan(w, h, kw, kh)
	planCache[key] = p
	return p
}

// TransformKernelWith is TransformKernel through a caller-owned scratch, so
// kernel banks can be derived on shared plans without touching the plan's
// embedded scratch.
func (p *Plan) TransformKernelWith(s *Scratch, kernel []float64) []complex128 {
	return p.transformKernel(s, kernel)
}
