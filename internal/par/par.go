// Package par is the framework's parallel execution layer: a bounded worker
// pool with an ordered Map primitive. Every hot loop that fans out — per-mask
// ILT lanes, per-candidate ILT runs, training-set labeling, predictor
// batch sharding — goes through this package so parallelism policy (worker
// count, env override, nesting) lives in one place.
//
// Determinism is the design constraint: Map runs fn(i) for every i exactly
// once, each i writing only into its own slot of the caller's output, and the
// caller reduces in fixed index order afterwards. Because every fn(i) is
// itself deterministic and independent, the result is byte-identical to the
// serial loop `for i := 0; i < n; i++ { fn(i) }` regardless of worker count
// or scheduling.
//
// MapCtx extends the contract to cancellation: workers stop claiming items
// once the context is done, every claimed item still completes, and because
// items are claimed in increasing order the completed set is exactly a
// prefix [0, done) — the ordered-reduction determinism holds over it.
package par

import (
	"context"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ldmo/internal/faultinject"
	"ldmo/internal/runx"
)

// EnvWorkers is the environment variable that overrides the default worker
// count. An invalid or non-positive value falls back to GOMAXPROCS with a
// one-time warning on stderr.
const EnvWorkers = "LDMO_WORKERS"

// warnOnce/warnWriter gate the one-time invalid-LDMO_WORKERS warning; tests
// substitute both.
var (
	warnOnce   sync.Once
	warnWriter io.Writer = os.Stderr
)

// Workers returns the default pool size: the value of LDMO_WORKERS when set
// to a positive integer, otherwise runtime.GOMAXPROCS(0).
func Workers() int {
	return workersFrom(os.Getenv(EnvWorkers), &warnOnce)
}

// workersFrom parses an EnvWorkers value, warning (at most once per `once`)
// when a non-empty value is unusable so a mistyped override does not
// silently serialize or misconfigure a production run.
func workersFrom(v string, once *sync.Once) int {
	fallback := runtime.GOMAXPROCS(0)
	if v == "" {
		return fallback
	}
	n, err := strconv.Atoi(v)
	if err == nil && n > 0 {
		return n
	}
	once.Do(func() {
		fmt.Fprintf(warnWriter, "par: ignoring invalid %s=%q; using GOMAXPROCS=%d\n",
			EnvWorkers, v, fallback)
	})
	return fallback
}

// Pool is a bounded worker pool. The zero value is not usable; construct with
// NewPool. A Pool is stateless between Map calls and safe for concurrent use.
type Pool struct {
	size int
}

// NewPool returns a pool of n workers; n <= 0 selects Workers().
func NewPool(n int) *Pool {
	if n <= 0 {
		n = Workers()
	}
	return &Pool{size: n}
}

// Size returns the configured worker count.
func (p *Pool) Size() int { return p.size }

// Map runs fn(worker, i) for every i in [0, n) across at most Size() workers
// and returns once all calls have completed. worker identifies which of the
// pool's lanes is executing (0 <= worker < min(Size(), n)), so callers can
// hand each lane its own single-goroutine resources (a Simulator, a Plan, an
// Optimizer) built once before the call.
//
// Items are claimed dynamically, so lane assignment is nondeterministic —
// per-worker resources must be interchangeable replicas. Output determinism
// is the caller's contract: fn(i) writes only to slot i of its results, and
// any reduction happens in index order after Map returns.
//
// With one worker (or n <= 1) Map degenerates to the serial loop on the
// calling goroutine. A panic in any fn is re-raised on the caller as a
// *runx.PanicError carrying the original panic value and the worker's stack.
func (p *Pool) Map(n int, fn func(worker, i int)) {
	p.mapCtx(nil, n, fn)
}

// MapCtx is Map with cooperative cancellation: once ctx is done, workers
// stop claiming new items (items already claimed run to completion — fn is
// never abandoned mid-flight). It returns done, the completed-prefix length:
// every i < done has run exactly once, no i >= done has run, and the
// caller's ordered reduction over [0, done) is byte-identical to a serial
// loop stopped at done. err is ctx.Err() when the run was cut short, nil
// when all n items completed.
func (p *Pool) MapCtx(ctx context.Context, n int, fn func(worker, i int)) (done int, err error) {
	return p.mapCtx(ctx, n, fn)
}

func (p *Pool) mapCtx(ctx context.Context, n int, fn func(worker, i int)) (int, error) {
	if n <= 0 {
		return 0, ctxErr(ctx)
	}
	// A context without a Done channel can never be cancelled; drop it so
	// the hot loop pays nothing.
	if ctx != nil && ctx.Done() == nil {
		ctx = nil
	}
	w := p.size
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			if ctx != nil && ctx.Err() != nil {
				return i, ctx.Err()
			}
			stallPoint(i)
			fn(0, i)
		}
		return n, ctxErr(ctx)
	}
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		pmu      sync.Mutex
		panicked *runx.PanicError
	)
	for lane := 0; lane < w; lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					pe := runx.NewPanicError(r)
					pmu.Lock()
					if panicked == nil {
						panicked = pe
					}
					pmu.Unlock()
				}
			}()
			for {
				if ctx != nil && ctx.Err() != nil {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				stallPoint(i)
				fn(lane, i)
			}
		}(lane)
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
	claimed := int(next.Load())
	if claimed > n {
		claimed = n
	}
	if claimed < n {
		return claimed, ctx.Err()
	}
	return n, ctxErr(ctx)
}

// ctxErr is ctx.Err() tolerant of the nil context used internally.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// stallPoint is the worker-stall fault injection site: when armed, the
// worker about to run item Arg (default 0) sleeps long enough for a
// cancellation or timeout to land mid-Map. Disarmed cost: one atomic load.
func stallPoint(i int) {
	if !faultinject.Enabled(faultinject.WorkerStall) {
		return
	}
	if i == faultinject.ArgInt(faultinject.WorkerStall, 0) {
		time.Sleep(25 * time.Millisecond)
	}
}

// MapSlice runs fn across the pool and collects out[i] = fn(worker, i),
// preserving index order. It is the common "gather" form of Map.
func MapSlice[T any](p *Pool, n int, fn func(worker, i int) T) []T {
	out := make([]T, n)
	p.Map(n, func(worker, i int) {
		out[i] = fn(worker, i)
	})
	return out
}
