package runx

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

// fakeSleep records requested backoffs without waiting.
type fakeSleep struct {
	ds []time.Duration
}

func (f *fakeSleep) sleep(ctx context.Context, d time.Duration) error {
	f.ds = append(f.ds, d)
	return ctx.Err()
}

func TestRetryFirstAttemptSucceeds(t *testing.T) {
	fs := &fakeSleep{}
	calls := 0
	err := Retry(context.Background(), RetryConfig{Sleep: fs.sleep}, func(attempt int) error {
		calls++
		if attempt != 1 {
			t.Fatalf("attempt numbering starts at %d, want 1", attempt)
		}
		return nil
	})
	if err != nil || calls != 1 || len(fs.ds) != 0 {
		t.Fatalf("clean first attempt: err=%v calls=%d sleeps=%v", err, calls, fs.ds)
	}
}

func TestRetryRecoversTransient(t *testing.T) {
	fs := &fakeSleep{}
	calls := 0
	err := Retry(context.Background(), RetryConfig{Attempts: 5, Sleep: fs.sleep}, func(int) error {
		calls++
		if calls < 3 {
			return errors.New("transient")
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Retry failed despite eventual success: %v", err)
	}
	if calls != 3 || len(fs.ds) != 2 {
		t.Fatalf("calls=%d sleeps=%d, want 3 and 2", calls, len(fs.ds))
	}
}

func TestRetryExhaustion(t *testing.T) {
	fs := &fakeSleep{}
	boom := errors.New("always fails")
	err := Retry(context.Background(), RetryConfig{Attempts: 3, Sleep: fs.sleep}, func(int) error {
		return boom
	})
	re, ok := AsRetry(err)
	if !ok {
		t.Fatalf("give-up error %T is not a RetryError", err)
	}
	if re.Attempts != 3 || re.Permanent {
		t.Fatalf("RetryError = %+v, want 3 non-permanent attempts", re)
	}
	if !errors.Is(err, boom) {
		t.Fatal("RetryError must unwrap to the last attempt's error")
	}
}

func TestRetryPermanentClassification(t *testing.T) {
	fs := &fakeSleep{}
	fatal := errors.New("bad input")
	calls := 0
	err := Retry(context.Background(), RetryConfig{
		Attempts:  5,
		Sleep:     fs.sleep,
		Retryable: func(err error) bool { return !errors.Is(err, fatal) },
	}, func(int) error {
		calls++
		return fatal
	})
	re, ok := AsRetry(err)
	if !ok || !re.Permanent || re.Attempts != 1 || calls != 1 {
		t.Fatalf("permanent error retried: err=%v calls=%d", err, calls)
	}
	if len(fs.ds) != 0 {
		t.Fatal("permanent error must not back off")
	}
}

func TestRetryInterruptedAttemptNotRetried(t *testing.T) {
	fs := &fakeSleep{}
	calls := 0
	err := Retry(context.Background(), RetryConfig{Attempts: 5, Sleep: fs.sleep}, func(int) error {
		calls++
		return fmt.Errorf("run stopped: %w", context.DeadlineExceeded)
	})
	re, ok := AsRetry(err)
	if !ok || calls != 1 || re.Attempts != 1 {
		t.Fatalf("interrupted attempt was retried: err=%v calls=%d", err, calls)
	}
	if !Interrupted(err) {
		t.Fatal("RetryError must preserve the Interrupted classification")
	}
}

func TestRetryDeadContextBeforeFirstAttempt(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	calls := 0
	err := Retry(ctx, RetryConfig{Sleep: (&fakeSleep{}).sleep}, func(int) error {
		calls++
		return nil
	})
	re, ok := AsRetry(err)
	if !ok || calls != 0 || re.Attempts != 0 {
		t.Fatalf("dead context still attempted: err=%v calls=%d", err, calls)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("give-up must carry the context error, got %v", err)
	}
}

func TestRetryRefusesSleepPastDeadline(t *testing.T) {
	// The remaining budget (10ms) cannot cover the first backoff (50ms), so
	// the retry gives up immediately instead of sleeping into the deadline.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	fs := &fakeSleep{}
	calls := 0
	err := Retry(ctx, RetryConfig{Attempts: 5, Sleep: fs.sleep}, func(int) error {
		calls++
		return errors.New("transient")
	})
	re, ok := AsRetry(err)
	if !ok || calls != 1 || re.Attempts != 1 {
		t.Fatalf("deadline-doomed backoff not short-circuited: err=%v calls=%d", err, calls)
	}
	if len(fs.ds) != 0 {
		t.Fatalf("slept %v despite doomed deadline", fs.ds)
	}
}

// checkBackoffs checks the waits, in ms, that Retry asks the fake Sleep for
// over attempts failing attempts.
func checkBackoffs(t *testing.T, attempts int, ms ...time.Duration) {
	t.Helper()
	fs := &fakeSleep{}
	Retry(context.Background(), RetryConfig{Attempts: attempts, Sleep: fs.sleep},
		func(int) error { return errors.New("x") })
	if len(fs.ds) != len(ms) {
		t.Fatalf("%d attempts backed off %v, want %d waits", attempts, fs.ds, len(ms))
	}
	for i, d := range fs.ds {
		if d != ms[i]*time.Millisecond {
			t.Fatalf("backoff %d = %v, want %v (schedule %v)", i, d, ms[i]*time.Millisecond, fs.ds)
		}
	}
}

func TestRetryBackoffScheduleDeterministic(t *testing.T) {
	checkBackoffs(t, 5, 50, 100, 200, 400)
}

func TestRetryBackoffSaturates(t *testing.T) {
	checkBackoffs(t, 12, 50, 100, 200, 400, 800, 1600, 2000, 2000, 2000, 2000, 2000)
}

func TestRetryCancelledDuringSleep(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	err := Retry(ctx, RetryConfig{
		Attempts: 5,
		Sleep: func(ctx context.Context, d time.Duration) error {
			cancel() // the context dies mid-backoff
			return ctx.Err()
		},
	}, func(int) error {
		calls++
		return errors.New("transient")
	})
	re, ok := AsRetry(err)
	if !ok || calls != 1 || re.Attempts != 1 {
		t.Fatalf("cancellation during backoff not honored: err=%v calls=%d", err, calls)
	}
	if !Interrupted(err) {
		t.Fatalf("cancellation during backoff not classified Interrupted: %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("context error lost from chain: %v", err)
	}
}

// TestRetryCancelledMidBackoffPrompt pins the real-sleep path: realSleep
// returns the context's error as soon as a cancel lands, well before its
// delay elapses, and a Retry whose attempt cancels the context gives up
// from the default sleep classified Interrupted, the attempt's own error
// still in the chain.
func TestRetryCancelledMidBackoffPrompt(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	err := realSleep(ctx, 10*time.Second)
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancelled sleep took %v, want prompt return", elapsed)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled sleep returned %v, want Canceled", err)
	}

	ctx, cancel = context.WithCancel(context.Background())
	attemptErr := errors.New("transient")
	err = Retry(ctx, RetryConfig{Attempts: 3}, func(int) error {
		cancel()
		return attemptErr
	})
	if !Interrupted(err) {
		t.Fatalf("cancelled backoff not classified Interrupted: %v", err)
	}
	if !errors.Is(err, attemptErr) {
		t.Fatalf("attempt error lost from chain: %v", err)
	}
	re, ok := AsRetry(err)
	if !ok || re.Attempts != 1 {
		t.Fatalf("unexpected retry shape: %+v ok=%v", re, ok)
	}
}
