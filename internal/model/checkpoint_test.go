package model

import (
	"bytes"
	"context"
	"errors"
	"path/filepath"
	"strings"
	"testing"
)

// batchPollCtx cancels deterministically: Err() starts failing after `allow`
// calls. TrainCtx polls once per batch, so the cut lands at an exact batch.
type batchPollCtx struct {
	context.Context
	allow int
	polls int
}

func (c *batchPollCtx) Err() error {
	c.polls++
	if c.polls > c.allow {
		return context.Canceled
	}
	return nil
}

func trainCfg(ckpt string) TrainConfig {
	return TrainConfig{
		Epochs:      6,
		BatchSize:   8,
		LR:          1e-3,
		DecayAt:     3,
		DecayFactor: 0.5,
		Seed:        7,
		Checkpoint:  ckpt,
	}
}

func weightsOf(t *testing.T, p *Predictor) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := p.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTrainCtxResumeBitIdentical is the acceptance test for training resume:
// interrupt a checkpointed run mid-epoch, resume it, and require the final
// weights and loss history to match an uninterrupted run bit for bit. The
// decay epoch (3) sits beyond the interrupt so the decayed learning rate
// must survive the round trip through the checkpoint.
func TestTrainCtxResumeBitIdentical(t *testing.T) {
	ds := syntheticDataset(24, 3) // 3 batches per epoch at BatchSize 8

	clean, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	wantHist, err := clean.Train(ds, trainCfg(""))
	if err != nil {
		t.Fatal(err)
	}
	want := weightsOf(t, clean)

	ckpt := filepath.Join(t.TempDir(), "train.ckpt")
	interrupted, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	// 3 polls per epoch; allow 2 full epochs plus one batch, so the cut is
	// mid-epoch-3 and the on-disk state is the epoch-2 boundary.
	ctx := &batchPollCtx{Context: context.Background(), allow: 2*3 + 1}
	hist, err := interrupted.TrainCtx(ctx, ds, trainCfg(ckpt))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted training returned %v, want Canceled", err)
	}
	if len(hist) != 2 {
		t.Fatalf("interrupted history has %d epochs, want the 2 completed ones", len(hist))
	}

	resumed, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	var log strings.Builder
	tc := trainCfg(ckpt)
	tc.Log = &log
	gotHist, err := resumed.TrainCtx(context.Background(), ds, tc)
	if err != nil {
		t.Fatalf("resume failed: %v", err)
	}
	if !strings.Contains(log.String(), "resuming from") {
		t.Fatalf("resume did not report itself:\n%s", log.String())
	}
	if len(gotHist) != len(wantHist) {
		t.Fatalf("resumed history has %d epochs, want %d", len(gotHist), len(wantHist))
	}
	for i := range wantHist {
		if gotHist[i] != wantHist[i] {
			t.Fatalf("epoch %d loss %v differs from uninterrupted %v", i+1, gotHist[i], wantHist[i])
		}
	}
	if got := weightsOf(t, resumed); !bytes.Equal(got, want) {
		t.Fatal("resumed weights differ from the uninterrupted run")
	}
}

// TestTrainCtxFreshCheckpointPathTrains: a checkpoint path that does not
// exist yet must not disturb a clean run, and the final checkpoint must load
// back into an identical predictor.
func TestTrainCtxFreshCheckpointPathTrains(t *testing.T) {
	ds := syntheticDataset(16, 5)
	ckpt := filepath.Join(t.TempDir(), "sub", "train.ckpt")
	p, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	tc := trainCfg(ckpt)
	tc.Epochs = 2
	if _, err := p.TrainCtx(context.Background(), ds, tc); err != nil {
		t.Fatal(err)
	}
	// Immediately resuming a finished run is a no-op with identical weights.
	q, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.TrainCtx(context.Background(), ds, tc); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(weightsOf(t, p), weightsOf(t, q)) {
		t.Fatal("no-op resume changed the weights")
	}
}

// TestTrainCtxStaleCheckpointRejected: a checkpoint from a different run —
// another seed, batch size, learning-rate schedule or loss — must fail
// loudly, not silently poison the weights. A longer run on the same
// schedule is the same trajectory and resumes.
func TestTrainCtxStaleCheckpointRejected(t *testing.T) {
	ds := syntheticDataset(16, 5)
	ckpt := filepath.Join(t.TempDir(), "train.ckpt")
	p, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	base := trainCfg(ckpt)
	base.Epochs = 1
	if _, err := p.TrainCtx(context.Background(), ds, base); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		edit func(tc *TrainConfig)
	}{
		{"seed", func(tc *TrainConfig) { tc.Seed++ }},
		{"batch-size", func(tc *TrainConfig) { tc.BatchSize = 4 }},
		{"lr", func(tc *TrainConfig) { tc.LR *= 2 }},
		{"decay-at", func(tc *TrainConfig) { tc.DecayAt++ }},
		{"decay-factor", func(tc *TrainConfig) { tc.DecayFactor = 0.3 }},
		{"mse", func(tc *TrainConfig) { tc.UseMSE = true }},
	} {
		tc := base
		c.edit(&tc)
		if _, err := p.TrainCtx(context.Background(), ds, tc); err == nil {
			t.Fatalf("%s: stale checkpoint must be rejected", c.name)
		} else if !strings.Contains(err.Error(), "stale checkpoint") {
			t.Fatalf("%s: unexpected stale error: %v", c.name, err)
		}
	}

	var log strings.Builder
	longer := base
	longer.Epochs = 2
	longer.Log = &log
	if _, err := p.TrainCtx(context.Background(), ds, longer); err != nil {
		t.Fatalf("a longer run on the same schedule: %v", err)
	}
	if !strings.Contains(log.String(), "resuming from "+ckpt+" at epoch 1/2") {
		t.Fatalf("a longer run on the same schedule did not resume:\n%s", log.String())
	}
}
