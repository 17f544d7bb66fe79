package litho

import (
	"sync"

	"ldmo/internal/fft"
)

// simShared is the immutable, process-shared core of every simulator of one
// (process params, raster geometry) combination: the SOCS
// kernel bank, the convolution plan, and the transformed kernel spectra.
// Deriving these is the dominant cost of standing up a simulator (and with
// it an ILT optimizer); sharing them turns per-layout optimizer construction
// in the pipelined flow — and per-lane construction in OracleSelect — into
// buffer allocation only. All three fields are read-only after construction
// and therefore safe to share across any number of simulators and
// goroutines; mutable per-run state stays in the owning Simulator.
type simShared struct {
	bank  []Kernel
	plan  *fft.Plan
	kffts [][]complex128
}

var (
	sharedMu    sync.Mutex
	sharedCache = map[sharedKey]*simShared{}
)

// sharedKey identifies one shared resource set. Params is a plain value
// struct, so it is directly comparable.
type sharedKey struct {
	p    Params
	w, h int
}

// sharedFor returns the shared kernel bank / plan / kernel-spectrum set for
// the geometry, building it on first use. The derivation is a pure function
// of the key, so a cached set is bit-identical to a freshly built one.
func sharedFor(p Params, w, h int) *simShared {
	key := sharedKey{p, w, h}
	sharedMu.Lock()
	defer sharedMu.Unlock()
	if s := sharedCache[key]; s != nil {
		return s
	}
	bank := BuildKernelBank(p)
	ks := MaxKernelSize(bank)
	plan := fft.PlanFor(w, h, ks, ks)
	kffts := make([][]complex128, len(bank))
	// Kernel transforms run through a throwaway scratch: the shared plan's
	// embedded scratch must stay untouched so concurrent holders of the
	// plan are never raced by a late cache fill.
	fs := plan.NewScratch()
	for i, k := range bank {
		kffts[i] = plan.TransformKernelWith(fs, padKernel(k, ks))
	}
	s := &simShared{bank: bank, plan: plan, kffts: kffts}
	sharedCache[key] = s
	return s
}
