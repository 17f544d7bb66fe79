package ilt

import (
	"math"
	"reflect"
	"runtime"
	"testing"

	"ldmo/internal/decomp"
	"ldmo/internal/epe"
	"ldmo/internal/layout"
	"ldmo/internal/litho"
)

// optimizerCandidates generates the decomposition candidates of l, capped so
// the sweeps over them stay fast.
func optimizerCandidates(l layout.Layout) ([]decomp.Decomposition, error) {
	cands, err := decomp.NewGenerator().Generate(l)
	if err != nil {
		return nil, err
	}
	if len(cands) > 3 {
		cands = cands[:3]
	}
	return cands, nil
}

// allocBytes reports cumulative heap bytes allocated by this test process.
func allocBytes() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// TestEngineGoldenILT is the decision-level golden guard at the optimizer
// layer: full ILT runs make exactly the discrete decisions — per-iteration
// EPE violation counts, final violation verdicts, abort behavior — that the
// full-complex reference engine made on the same candidates, and their final
// L2 agrees with it to 1e-9. The reference values were recorded from that
// engine when it was retired to a test oracle (internal/fft).
func TestEngineGoldenILT(t *testing.T) {
	golden := []struct {
		key   string
		epe   int
		viol  epe.Violations
		l2    float64
		trace []int
	}{
		{"01010010", 7, epe.Violations{Missing: 1}, 176.98424674515542, []int{12, 22, 6, 6, 7, 5, 5, 5, 6, 7}},
		{"01001010", 2, epe.Violations{}, 172.89847556834226, []int{12, 24, 6, 5, 6, 4, 3, 2, 2, 2}},
		{"01011101", 4, epe.Violations{}, 171.80980290773667, []int{12, 24, 4, 4, 5, 4, 4, 4, 4, 4}},
	}
	cell, err := layout.Cell("AOI211_X1")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Litho = litho.FastParams()
	cfg.MaxIters = 9
	cfg.AbortOnViolation = false
	opt, err := NewOptimizer(cell, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cands, err := optimizerCandidates(cell)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != len(golden) {
		t.Fatalf("%d candidates, golden has %d", len(cands), len(golden))
	}
	for i, d := range cands {
		g, r := golden[i], opt.Run(d)
		if d.Key() != g.key {
			t.Fatalf("cand %d is %q, golden %q", i, d.Key(), g.key)
		}
		if r.EPE.Violations != g.epe || r.Violations != g.viol {
			t.Errorf("cand %d: EPE %d, verdicts %+v; reference %d, %+v", i, r.EPE.Violations, r.Violations, g.epe, g.viol)
		}
		if r.Aborted || r.Iters != 9 || len(r.Trace) != len(g.trace) {
			t.Fatalf("cand %d: aborted/iters/trace %v/%d/%d, want false/9/%d", i, r.Aborted, r.Iters, len(r.Trace), len(g.trace))
		}
		for j, want := range g.trace {
			if r.Trace[j].EPEViolations != want {
				t.Errorf("cand %d iter %d: EPE %d, reference %d", i, j, r.Trace[j].EPEViolations, want)
			}
		}
		if rel := math.Abs(r.L2-g.l2) / (math.Abs(g.l2) + 1); rel > 1e-9 {
			t.Errorf("cand %d: L2 %.17g, reference %.17g (rel %g)", i, r.L2, g.l2, rel)
		}
	}
}

// TestMaskSwapSymmetry is the metamorphic test behind dual-mask
// canonicalization: flipping every Assign bit exchanges masks 1 and 2 and
// nothing else, because Eq. 3 composes them symmetrically as
// min(T1+T2, 1). decomp.Key already treats the flipped decomposition as the
// same candidate, so its run must be the original run with M1 and M2
// swapped, bit for bit, and every verdict unchanged.
func TestMaskSwapSymmetry(t *testing.T) {
	cell, err := layout.Cell("AOI211_X1")
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastConfig()
	cfg.MaxIters = 9
	for _, l := range []layout.Layout{twoRowLayout(), cell} {
		opt, err := NewOptimizer(l, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cands, err := optimizerCandidates(l)
		if err != nil {
			t.Fatal(err)
		}
		for i, d := range cands {
			flipped := decomp.New(d.Layout, d.Assign)
			for j := range flipped.Assign {
				flipped.Assign[j] ^= 1
			}
			if flipped.Key() != d.Key() {
				t.Fatalf("%s cand %d: flipped key %q != %q", l.Name, i, flipped.Key(), d.Key())
			}
			a, b := opt.Run(d), opt.Run(flipped)
			if !bitsEqual(a.M1.Data, b.M2.Data) || !bitsEqual(a.M2.Data, b.M1.Data) {
				t.Fatalf("%s cand %d: flipped run's masks are not the original's, swapped", l.Name, i)
			}
			if !bitsEqual(a.Printed.Data, b.Printed.Data) {
				t.Fatalf("%s cand %d: printed image differs under the mask swap", l.Name, i)
			}
			if math.Float64bits(a.L2) != math.Float64bits(b.L2) || !reflect.DeepEqual(a.EPE, b.EPE) ||
				a.Violations != b.Violations || a.Iters != b.Iters || a.Aborted != b.Aborted ||
				!reflect.DeepEqual(a.Trace, b.Trace) {
				t.Fatalf("%s cand %d: verdicts differ under the mask swap: L2 %v/%v EPE %+v/%+v viol %+v/%+v iters %d/%d aborted %v/%v",
					l.Name, i, a.L2, b.L2, a.EPE, b.EPE, a.Violations, b.Violations, a.Iters, b.Iters, a.Aborted, b.Aborted)
			}
		}
	}
}

// bitsEqual reports whether two rasters hold the same float64 bit patterns.
func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestSessionStepSteadyStateAllocs pins the ILT inner loop's allocation
// behavior: after the first violation-check chunk has warmed the session,
// further gradient steps allocate only what the EPE meter needs (the trace
// is preallocated to the full budget).
func TestSessionStepSteadyStateAllocs(t *testing.T) {
	cell, err := layout.Cell("INV_X1")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Litho = litho.FastParams()
	cfg.MaxIters = 64
	opt, err := NewOptimizer(cell, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cands, err := optimizerCandidates(cell)
	if err != nil {
		t.Fatal(err)
	}
	s := opt.NewSession(cands[0])
	s.Step(3) // warm
	before := allocBytes()
	s.Step(8)
	grew := allocBytes() - before
	// The fft/litho layers must contribute nothing; the budget below is the
	// EPE meter's small per-measure bookkeeping only (well under one raster).
	raster := uint64(opt.sim.W * opt.sim.H * 8)
	if grew > raster {
		t.Errorf("8 ILT steps allocated %d bytes, more than one %d-byte raster", grew, raster)
	}
}
