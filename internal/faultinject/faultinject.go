// Package faultinject provides deterministic, gated fault points for
// exercising the runtime-hardening ladder end to end: a scorer that panics
// mid-batch, an ILT run that diverges, a worker that stalls, a pipeline that
// cancels itself after N units of work. Production code consults the points
// at well-known sites; tests (or an operator, via the LDMO_FAULTS env
// variable) arm them.
//
// The disarmed fast path is a single atomic load, so fault-point checks are
// safe to leave in hot loops.
package faultinject

import (
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// EnvFaults arms fault points from the environment at process start, as a
// comma-separated list of point[=arg] entries, e.g.
//
//	LDMO_FAULTS="scorer-panic,ilt-diverge=2,worker-stall=3"
const EnvFaults = "LDMO_FAULTS"

// The fault points wired into the tree.
const (
	// ScorerPanic makes the flow's prediction stage panic, exercising the
	// Recover boundary and the generator-order fallback.
	ScorerPanic = "scorer-panic"
	// ILTDiverge slams the optimizer's mask parameters from iteration
	// arg (default 0) on, so every candidate trips the violation check.
	ILTDiverge = "ilt-diverge"
	// WorkerStall makes par's workers sleep ~25ms before item arg
	// (default 0), giving cancellation a window to land mid-Map.
	WorkerStall = "worker-stall"
	// CancelAfter makes checkpointing pipelines cancel their own context
	// after arg completed units, for deterministic interrupt/resume tests.
	CancelAfter = "cancel-after"
	// ArtifactBitflip inverts one payload byte of the next sealed artifact
	// whose base name contains arg (empty matches any), in place on disk,
	// then disarms itself — simulating at-rest bit rot on exactly one read.
	ArtifactBitflip = "artifact-bitflip"
	// ArtifactTruncate cuts the next matching sealed artifact to half its
	// length before it is read, then disarms itself — a torn write that
	// somehow survived the atomic-rename protocol.
	ArtifactTruncate = "artifact-truncate"
	// ILTNaN poisons the ILT mask parameters with NaN at iteration arg.
	// A non-negative arg fires once at iteration >= arg and disarms, so the
	// optimizer's rollback recovers and the run completes; a negative arg
	// fires at every iteration >= -arg and stays armed, exhausting the
	// bounded retries so the candidate fails cleanly.
	ILTNaN = "ilt-nan"
	// TrainNaN poisons the training loss with NaN at batch arg, with the
	// same one-shot (arg >= 0) / sticky (arg < 0) convention as ILTNaN.
	TrainNaN = "train-nan"
)

var (
	armed  atomic.Int32 // number of armed points; 0 short-circuits Enabled
	mu     sync.Mutex
	points = map[string]string{}
)

func init() {
	ArmFromSpec(os.Getenv(EnvFaults))
}

// ArmFromSpec arms every point in a comma-separated point[=arg] spec.
// Unknown names are armed as given — call sites decide what they consult.
func ArmFromSpec(spec string) {
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		point, arg, _ := strings.Cut(entry, "=")
		Set(point, arg)
	}
}

// Set arms a fault point with an optional argument.
func Set(point, arg string) {
	mu.Lock()
	defer mu.Unlock()
	if _, ok := points[point]; !ok {
		armed.Add(1)
	}
	points[point] = arg
}

// Clear disarms one point.
func Clear(point string) {
	mu.Lock()
	defer mu.Unlock()
	if _, ok := points[point]; ok {
		delete(points, point)
		armed.Add(-1)
	}
}

// Reset disarms everything (including env-armed points); tests defer this.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	points = map[string]string{}
	armed.Store(0)
}

// Enabled reports whether the point is armed. Disarmed processes pay one
// atomic load.
func Enabled(point string) bool {
	if armed.Load() == 0 {
		return false
	}
	mu.Lock()
	defer mu.Unlock()
	_, ok := points[point]
	return ok
}

// Arg returns the point's argument and whether the point is armed.
func Arg(point string) (string, bool) {
	if armed.Load() == 0 {
		return "", false
	}
	mu.Lock()
	defer mu.Unlock()
	arg, ok := points[point]
	return arg, ok
}

// FireAt implements the one-shot/sticky convention of the NaN points for a
// monotonically increasing step counter: a non-negative argument (default 0)
// fires once at step >= arg and disarms the point, so recovery logic gets a
// single transient fault to roll back from; a negative argument fires at
// every step >= -arg and stays armed, a persistent fault that must exhaust
// the bounded retries. Disarmed cost: one atomic load.
func FireAt(point string, step int) bool {
	arg, ok := Arg(point)
	if !ok {
		return false
	}
	n, err := strconv.Atoi(arg)
	if err != nil {
		n = 0
	}
	if n >= 0 {
		if step >= n {
			Clear(point)
			return true
		}
		return false
	}
	return step >= -n
}

// ArgInt returns the point's argument as an int: def when the point is
// disarmed or the argument is empty or malformed.
func ArgInt(point string, def int) int {
	arg, ok := Arg(point)
	if !ok || arg == "" {
		return def
	}
	n, err := strconv.Atoi(arg)
	if err != nil {
		return def
	}
	return n
}
