package runx

import (
	"context"
	"errors"
	"fmt"
	"time"
)

// Backoff schedule of Retry: the first retry waits retryBase, and each
// later one doubles the wait up to retryMax.
const (
	retryBase = 50 * time.Millisecond
	retryMax  = 2 * time.Second
)

// RetryConfig parameterizes Retry. The zero value selects the defaults: 3
// attempts, every error retryable except cancellation/deadline.
type RetryConfig struct {
	// Attempts is the total attempt budget, including the first; <=0 selects 3.
	Attempts int
	// Retryable classifies errors; nil means every error is retryable. A
	// cancellation/deadline error (Interrupted) is never retried regardless —
	// the budget owns that decision, not the classifier.
	Retryable func(error) bool
	// Sleep replaces the backoff sleep, for tests and external clocks. nil
	// selects a real context-aware sleep. It must return ctx.Err() when the
	// context dies before the duration elapses.
	Sleep func(ctx context.Context, d time.Duration) error
}

// RetryError is the typed give-up: the attempt budget is spent, or the
// context/budget died, or the last error was classified permanent. Last is
// the error of the final attempt (or the context error when the budget died
// between attempts) and is exposed via Unwrap, so errors.Is/As reach through
// to the underlying cause.
type RetryError struct {
	// Attempts counts the attempts actually made.
	Attempts int
	// Permanent reports the give-up reason was classification, not
	// exhaustion: the last error was not retryable.
	Permanent bool
	// Last is the final attempt's error.
	Last error
}

// Error implements error.
func (e *RetryError) Error() string {
	why := "attempts exhausted"
	switch {
	case e.Permanent:
		why = "permanent error"
	case Interrupted(e.Last):
		why = "budget exhausted"
	}
	return fmt.Sprintf("retry gave up after %d attempt(s) (%s): %v", e.Attempts, why, e.Last)
}

// Unwrap exposes the final attempt's error to errors.Is/As.
func (e *RetryError) Unwrap() error { return e.Last }

// AsRetry unwraps err to a *RetryError when one is in its chain.
func AsRetry(err error) (*RetryError, bool) {
	var re *RetryError
	if errors.As(err, &re) {
		return re, true
	}
	return nil, false
}

// Retry runs fn under exponential backoff (50ms doubling to a 2s cap) until
// it succeeds, the attempt budget is spent, the error is classified
// permanent, or the context dies. fn receives the 1-based attempt number. A
// failure is reported as a *RetryError wrapping the last attempt's error;
// nil means an attempt succeeded.
//
// Retry is budget-aware in both directions: it polls ctx before every
// attempt, and it refuses to start a backoff sleep that cannot complete
// before the context deadline — a retry that would wake up dead gives up
// immediately instead of burning the remaining budget asleep.
func Retry(ctx context.Context, cfg RetryConfig, fn func(attempt int) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	attempts := cfg.Attempts
	if attempts <= 0 {
		attempts = 3
	}
	sleep := cfg.Sleep
	if sleep == nil {
		sleep = realSleep
	}

	var last error
	for attempt := 1; ; attempt++ {
		if err := ctx.Err(); err != nil {
			if last == nil {
				last = err
			}
			return &RetryError{Attempts: attempt - 1, Last: last}
		}
		last = fn(attempt)
		if last == nil {
			return nil
		}
		if Interrupted(last) {
			// The budget, not the operation, stopped the attempt: more tries
			// cannot help and would double-spend an already-drained budget.
			return &RetryError{Attempts: attempt, Last: last}
		}
		if cfg.Retryable != nil && !cfg.Retryable(last) {
			return &RetryError{Attempts: attempt, Permanent: true, Last: last}
		}
		if attempt >= attempts {
			return &RetryError{Attempts: attempt, Last: last}
		}
		d := backoff(attempt - 1)
		if dl, ok := ctx.Deadline(); ok && time.Until(dl) < d {
			return &RetryError{Attempts: attempt, Last: last}
		}
		if err := sleep(ctx, d); err != nil {
			// The context died mid-backoff: classify the give-up as
			// interrupted while keeping the attempt's own error reachable.
			return &RetryError{Attempts: attempt, Last: errors.Join(err, last)}
		}
	}
}

// backoff returns the wait before retry n+1: retryBase*2^n, capped at
// retryMax.
func backoff(n int) time.Duration {
	d := retryBase
	for i := 0; i < n; i++ {
		if d >= retryMax/2 {
			return retryMax
		}
		d *= 2
	}
	return d
}

// realSleep waits d or until ctx dies, whichever comes first.
func realSleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
