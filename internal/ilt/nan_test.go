package ilt

import (
	"math"
	"reflect"
	"testing"

	"ldmo/internal/faultinject"
)

func finiteGrid(t *testing.T, name string, data []float64) {
	t.Helper()
	for _, v := range data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("%s contains non-finite values", name)
		}
	}
}

// TestILTNaNOneShotRecovers: a transient NaN injected mid-run must roll the
// optimizer back to the last violation-check snapshot and complete the run
// with a halved step — the result is finite, untagged, and records exactly
// the one recovery.
func TestILTNaNOneShotRecovers(t *testing.T) {
	defer faultinject.Reset()
	d, opt := firstCand(t)

	clean := opt.Run(d)
	faultinject.Set(faultinject.ILTNaN, "5") // fire once at iteration 5
	r := opt.Run(d)
	if r.NumericalFault {
		t.Fatal("one-shot NaN must be recoverable, not a numerical fault")
	}
	if r.Aborted || r.Interrupted {
		t.Fatalf("recovered run mis-tagged: aborted=%v interrupted=%v", r.Aborted, r.Interrupted)
	}
	if r.NaNRecoveries != 1 {
		t.Fatalf("NaNRecoveries = %d, want 1", r.NaNRecoveries)
	}
	if r.Iters != opt.Config().MaxIters {
		t.Fatalf("recovered run performed %d iterations, want the full %d", r.Iters, opt.Config().MaxIters)
	}
	finiteGrid(t, "M1", r.M1.Data)
	finiteGrid(t, "M2", r.M2.Data)
	finiteGrid(t, "Printed", r.Printed.Data)
	if math.IsNaN(r.L2) || math.IsInf(r.L2, 0) {
		t.Fatalf("recovered run has non-finite L2 %v", r.L2)
	}
	if faultinject.Enabled(faultinject.ILTNaN) {
		t.Fatal("one-shot point still armed after firing")
	}
	// The rollback lands on the iteration-3 check boundary, and iteration 4
	// is re-simulated from that state — not from the images of the faulted
	// iteration — so the trace up to it matches the clean run's.
	if !reflect.DeepEqual(r.Trace[:4], clean.Trace[:4]) {
		t.Fatalf("recovered trace %+v does not restart from the clean run's %+v", r.Trace[:4], clean.Trace[:4])
	}
}

// TestILTNaNStickyFailsCleanly: a persistent NaN source must exhaust the
// bounded retries and fail the candidate the way a tripped violation check
// does — Aborted plus NumericalFault, with the last finite state as masks —
// instead of looping or returning poisoned numbers.
func TestILTNaNStickyFailsCleanly(t *testing.T) {
	defer faultinject.Reset()
	d, opt := firstCand(t)

	faultinject.Set(faultinject.ILTNaN, "-5") // fire at every iteration >= 5
	r := opt.Run(d)
	if !r.NumericalFault {
		t.Fatal("persistent NaN did not surface as NumericalFault")
	}
	if !r.Aborted {
		t.Fatal("numerical fault must tag Aborted so the flow tries the next candidate")
	}
	finiteGrid(t, "M1", r.M1.Data)
	finiteGrid(t, "M2", r.M2.Data)
	if math.IsNaN(r.L2) || math.IsInf(r.L2, 0) {
		t.Fatalf("failed run leaked non-finite L2 %v", r.L2)
	}
	// The run rolled back to the last good boundary before giving up, so the
	// reported iteration count sits at or below the injection point.
	if r.Iters >= 5 {
		t.Fatalf("failed run reports %d iterations, want the pre-fault snapshot (< 5)", r.Iters)
	}
}

// TestILTNaNRecoveryDoesNotDisturbCleanRuns: with the point disarmed, the
// NaN guard must be invisible — two identical runs stay bit-identical.
func TestILTNaNRecoveryDoesNotDisturbCleanRuns(t *testing.T) {
	d, opt := firstCand(t)
	a := opt.Run(d)
	b := opt.Run(d)
	if a.NaNRecoveries != 0 || b.NaNRecoveries != 0 {
		t.Fatal("clean runs recorded NaN recoveries")
	}
	if a.L2 != b.L2 || a.Iters != b.Iters {
		t.Fatalf("clean runs diverged: %v/%d vs %v/%d", a.L2, a.Iters, b.L2, b.Iters)
	}
	for i := range a.M1.Data {
		if a.M1.Data[i] != b.M1.Data[i] {
			t.Fatal("clean runs produced different masks")
		}
	}
}
