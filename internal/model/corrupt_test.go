package model

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ldmo/internal/artifact"
	"ldmo/internal/faultinject"
	"ldmo/internal/nn"
)

// TestTrainCheckpointFileBytesIdentical: identical training state must seal
// to identical checkpoint files — not just decode-equal payloads. The gob
// type IDs are pinned at init (artifact.StabilizeGob), so the bytes are a
// pure function of the state regardless of what else the process encoded
// first. An interrupted-and-resumed run therefore finishes with checkpoint
// files byte-for-byte equal to an uninterrupted run's.
func TestTrainCheckpointFileBytesIdentical(t *testing.T) {
	ds := syntheticDataset(24, 3)
	dir := t.TempDir()

	cleanCkpt := filepath.Join(dir, "clean.ckpt")
	clean, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := clean.TrainCtx(context.Background(), ds, trainCfg(cleanCkpt)); err != nil {
		t.Fatal(err)
	}

	resCkpt := filepath.Join(dir, "resumed.ckpt")
	interrupted, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx := &batchPollCtx{Context: context.Background(), allow: 2*3 + 1}
	if _, err := interrupted.TrainCtx(ctx, ds, trainCfg(resCkpt)); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted training returned %v, want Canceled", err)
	}
	resumed, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := resumed.TrainCtx(context.Background(), ds, trainCfg(resCkpt)); err != nil {
		t.Fatal(err)
	}

	for _, suffix := range []string{"", prevSuffix} {
		want, err := os.ReadFile(cleanCkpt + suffix)
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(resCkpt + suffix)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("checkpoint%s file bytes differ between clean and resumed runs", suffix)
		}
	}
}

// seedCheckpointPair trains long enough to leave both the latest checkpoint
// and its retained predecessor on disk, returning the checkpoint path and the
// reference weights of a full uninterrupted run.
func seedCheckpointPair(t *testing.T, ds *Dataset, dir string) (string, []byte) {
	t.Helper()
	clean, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := clean.TrainCtx(context.Background(), ds, trainCfg("")); err != nil {
		t.Fatal(err)
	}
	want := weightsOf(t, clean)

	ckpt := filepath.Join(dir, "train.ckpt")
	partial, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	tc := trainCfg(ckpt)
	tc.Epochs = 3 // checkpoints at 1..3, so .prev holds epoch 2
	if _, err := partial.TrainCtx(context.Background(), ds, tc); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(ckpt + prevSuffix); err != nil {
		t.Fatalf("previous checkpoint not retained: %v", err)
	}
	return ckpt, want
}

// resumeFull resumes training over the (possibly damaged) checkpoint at ckpt
// for the full schedule and returns the final weights and the log.
func resumeFull(t *testing.T, ds *Dataset, ckpt string) ([]byte, string) {
	t.Helper()
	p, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	var log strings.Builder
	tc := trainCfg(ckpt)
	tc.Log = &log
	if _, err := p.TrainCtx(context.Background(), ds, tc); err != nil {
		t.Fatalf("resume over damaged checkpoint failed: %v\nlog:\n%s", err, log.String())
	}
	return weightsOf(t, p), log.String()
}

// TestTrainCheckpointBitflipFallsBackToPrev: a bit-flipped latest checkpoint
// must be quarantined with a log line naming the file and the reason, the
// retained previous checkpoint must take over, and the resumed run must still
// finish bit-identical to an uninterrupted one.
func TestTrainCheckpointBitflipFallsBackToPrev(t *testing.T) {
	defer faultinject.Reset()
	ds := syntheticDataset(24, 3)
	ckpt, want := seedCheckpointPair(t, ds, t.TempDir())

	// One-shot: fires on the first matching read (the latest checkpoint),
	// disarms, and the .prev read goes through clean.
	faultinject.Set(faultinject.ArtifactBitflip, "train.ckpt")
	got, log := resumeFull(t, ds, ckpt)

	if !strings.Contains(log, "discarding checkpoint "+ckpt) || !strings.Contains(log, "quarantined to") {
		t.Fatalf("quarantine not reported:\n%s", log)
	}
	if !strings.Contains(log, "resuming from "+ckpt+" at epoch 2/") {
		t.Fatalf("did not resume from the epoch-2 previous checkpoint:\n%s", log)
	}
	if _, err := os.Stat(ckpt + artifact.QuarantineSuffix); err != nil {
		t.Fatalf("corrupt checkpoint not quarantined: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("fallback resume diverged from the uninterrupted run")
	}
}

// TestTrainCheckpointTruncateFallsBackToPrev: same ladder for a torn write
// surviving on disk — the truncated latest checkpoint is quarantined and the
// previous one takes over.
func TestTrainCheckpointTruncateFallsBackToPrev(t *testing.T) {
	defer faultinject.Reset()
	ds := syntheticDataset(24, 3)
	ckpt, want := seedCheckpointPair(t, ds, t.TempDir())

	faultinject.Set(faultinject.ArtifactTruncate, "train.ckpt")
	got, log := resumeFull(t, ds, ckpt)

	if !strings.Contains(log, "discarding checkpoint "+ckpt) {
		t.Fatalf("quarantine not reported:\n%s", log)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("fallback resume diverged from the uninterrupted run")
	}
}

// TestTrainCheckpointBothCorruptStartsFresh: when the latest checkpoint AND
// its retained predecessor are both rotten, training must quarantine both,
// say so, and start from scratch — finishing identical to a clean run rather
// than dying or resuming poisoned state.
func TestTrainCheckpointBothCorruptStartsFresh(t *testing.T) {
	ds := syntheticDataset(24, 3)
	ckpt, want := seedCheckpointPair(t, ds, t.TempDir())

	for _, p := range []string{ckpt, ckpt + prevSuffix} {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		b[len(b)-1] ^= 0xFF
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	got, log := resumeFull(t, ds, ckpt)
	if !strings.Contains(log, "discarding checkpoint "+ckpt+" (") ||
		!strings.Contains(log, "discarding checkpoint "+ckpt+prevSuffix) {
		t.Fatalf("expected both checkpoints discarded:\n%s", log)
	}
	if strings.Contains(log, "resuming from") {
		t.Fatalf("resumed from a corrupt checkpoint:\n%s", log)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("fresh restart diverged from the clean run")
	}
}

// wireParams decodes the weight vectors that follow a checkpoint's header:
// gob matches the fields of nn's wire struct by name.
type wireParams struct {
	Names []string
	Data  [][]float64
}

// resealCheckpoint decodes the sealed checkpoint at path, lets edit change
// its header and weight vectors, and seals the result in place: a crafted
// file that passes the envelope's keyless checksum.
func resealCheckpoint(t *testing.T, path string, edit func(cp *trainCheckpoint, w *wireParams)) {
	t.Helper()
	payload, err := artifact.ReadFile(path, trainCheckpointKind, trainCheckpointVersion)
	if err != nil {
		t.Fatal(err)
	}
	dec := gob.NewDecoder(bytes.NewReader(payload))
	var cp trainCheckpoint
	var w wireParams
	if err := dec.Decode(&cp); err != nil {
		t.Fatal(err)
	}
	if err := dec.Decode(&w); err != nil {
		t.Fatal(err)
	}
	edit(&cp, &w)
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	if err := enc.Encode(cp); err != nil {
		t.Fatal(err)
	}
	if err := enc.Encode(w); err != nil {
		t.Fatal(err)
	}
	if err := artifact.WriteFile(path, trainCheckpointKind, trainCheckpointVersion, buf.Bytes()); err != nil {
		t.Fatal(err)
	}
}

// TestTrainCheckpointMisfitQuarantined replays crafted checkpoints that
// pass the envelope check but do not fit the network. Each must be
// quarantined like a bit flip, with the network untouched: the Adam cases
// are crafted into the latest checkpoint only, so the previous one takes
// over, and the weight and history cases into both, so training starts
// fresh. Either way the run must finish bit-identical to an uninterrupted
// one. Unchecked, the three Adam moment cases panicked the resumed
// TrainCtx, a negative learning rate or a zeroed step count trained on to
// other weights, the short weight vector left parameters 0-62 copied into a
// "fresh" start, and the short history resumed with a loss missing.
func TestTrainCheckpointMisfitQuarantined(t *testing.T) {
	cases := []struct {
		name  string
		fresh bool // crafted into .prev too
		edit  func(cp *trainCheckpoint, w *wireParams)
	}{
		{"adam-v-shorter-than-m", false, func(cp *trainCheckpoint, _ *wireParams) {
			cp.Adam.V = cp.Adam.V[:len(cp.Adam.V)-1]
		}},
		{"adam-moment-cut-to-one-value", false, func(cp *trainCheckpoint, _ *wireParams) {
			cp.Adam.M[0] = cp.Adam.M[0][:1] // the stem conv's weights
		}},
		{"adam-m-and-v-one-entry", false, func(cp *trainCheckpoint, _ *wireParams) {
			cp.Adam.M, cp.Adam.V = cp.Adam.M[:1], cp.Adam.V[:1]
		}},
		{"adam-lr-negative", false, func(cp *trainCheckpoint, _ *wireParams) {
			cp.Adam.LR = -cp.Adam.LR
		}},
		{"adam-no-steps", false, func(cp *trainCheckpoint, _ *wireParams) {
			cp.Adam.T = 0
		}},
		{"last-weights-one-short", true, func(_ *trainCheckpoint, w *wireParams) {
			last := len(w.Data) - 1
			w.Data[last] = w.Data[last][:len(w.Data[last])-1]
		}},
		{"history-short", true, func(cp *trainCheckpoint, _ *wireParams) {
			cp.History = cp.History[:len(cp.History)-1]
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ds := syntheticDataset(24, 3)
			ckpt, want := seedCheckpointPair(t, ds, t.TempDir())
			crafted := []string{ckpt}
			if tc.fresh {
				crafted = append(crafted, ckpt+prevSuffix)
			}
			for _, p := range crafted {
				resealCheckpoint(t, p, tc.edit)
			}

			got, log := resumeFull(t, ds, ckpt)
			for _, p := range crafted {
				if !strings.Contains(log, "discarding checkpoint "+p+" (") {
					t.Fatalf("%s not discarded:\n%s", p, log)
				}
				if _, err := os.Stat(p + artifact.QuarantineSuffix); err != nil {
					t.Fatalf("%s not quarantined: %v", p, err)
				}
			}
			if resumed := strings.Contains(log, "resuming from "+ckpt+" at epoch 2/"); resumed == tc.fresh {
				t.Fatalf("resumed from the previous checkpoint: %v, want %v:\n%s", resumed, !tc.fresh, log)
			}
			if !bytes.Equal(got, want) {
				t.Fatal("recovered run diverged from the uninterrupted run")
			}
		})
	}
}

// FuzzTrainCheckpoint feeds a resume arbitrary checkpoint payloads inside
// valid envelopes, seeded with the payloads of the checkpoints a real
// training run seals. The envelope's SHA-256 is keyless, so these bytes are
// the trust boundary of `ldmo-train -resume`. loadSealedCheckpoint must
// never panic; it must reject what it cannot use with a typed error (or the
// stale-run error) and leave the network untouched; what it accepts must
// drive an Adam step and re-seal to bytes that load back and re-seal
// identically.
func FuzzTrainCheckpoint(f *testing.F) {
	const seed, samples = 7, 16
	ckpt := filepath.Join(f.TempDir(), "train.ckpt")
	p, err := New(testConfig())
	if err != nil {
		f.Fatal(err)
	}
	tc := trainCfg(ckpt)
	tc.Epochs = 2
	if _, err := p.TrainCtx(context.Background(), syntheticDataset(samples, 5), tc); err != nil {
		f.Fatal(err)
	}
	for _, path := range []string{ckpt + prevSuffix, ckpt} {
		payload, err := artifact.ReadFile(path, trainCheckpointKind, trainCheckpointVersion)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "train.ckpt")
		var env bytes.Buffer
		if err := artifact.Seal(&env, trainCheckpointKind, trainCheckpointVersion, payload); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, env.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		p, err := New(testConfig())
		if err != nil {
			t.Fatal(err)
		}
		before := weightsOf(t, p)
		cp, ok, err := loadSealedCheckpoint(path, p.Net, seed, samples)
		if err != nil {
			if !artifact.Rejected(err) && !strings.Contains(err.Error(), "stale checkpoint") {
				t.Fatalf("rejection without a typed error: %v", err)
			}
			if !bytes.Equal(weightsOf(t, p), before) {
				t.Fatalf("rejected checkpoint (%v) changed the network", err)
			}
			return
		}
		if !ok {
			t.Fatal("a present checkpoint loaded as absent")
		}
		resealed := filepath.Join(dir, "resealed.ckpt")
		if err := saveTrainCheckpoint(resealed, p.Net, cp); err != nil {
			t.Fatal(err)
		}
		q, err := New(testConfig())
		if err != nil {
			t.Fatal(err)
		}
		cq, ok, err := loadSealedCheckpoint(resealed, q.Net, seed, samples)
		if err != nil || !ok {
			t.Fatalf("an accepted checkpoint does not load back: ok=%v err=%v", ok, err)
		}
		again := filepath.Join(dir, "again.ckpt")
		if err := saveTrainCheckpoint(again, q.Net, cq); err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(resealed)
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(again)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatal("an accepted checkpoint does not re-seal identically")
		}
		adam := nn.NewAdam(tc.LR)
		adam.SetState(cp.Adam)
		params := p.Net.Params()
		nn.ZeroGrads(params)
		adam.Step(params)
	})
}

// TestTrainCheckpointVersionSkewQuarantined: a checkpoint sealed under a
// different payload schema version must be rejected as a version mismatch and
// quarantined, not misdecoded.
func TestTrainCheckpointVersionSkewQuarantined(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "train.ckpt")
	if err := artifact.WriteFile(ckpt, trainCheckpointKind, trainCheckpointVersion+1, []byte("future payload")); err != nil {
		t.Fatal(err)
	}
	p, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	var log strings.Builder
	cp, ok, err := loadTrainCheckpoint(ckpt, p.Net, 7, 24, &log)
	if err != nil || ok {
		t.Fatalf("skewed checkpoint: got (%+v, %v, %v), want quiet fresh start", cp, ok, err)
	}
	if !strings.Contains(log.String(), "version") {
		t.Fatalf("discard reason does not mention the version: %s", log.String())
	}
	if _, err := os.Stat(ckpt + artifact.QuarantineSuffix); err != nil {
		t.Fatalf("skewed checkpoint not quarantined: %v", err)
	}
}

// TestTrainCheckpointWrongKindQuarantined: an envelope of a different payload
// kind at the checkpoint path (a dataset shard copied over it, say) must be
// rejected and quarantined the same way.
func TestTrainCheckpointWrongKindQuarantined(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "train.ckpt")
	if err := artifact.WriteFile(ckpt, "dataset-shard", trainCheckpointVersion, []byte("not a checkpoint")); err != nil {
		t.Fatal(err)
	}
	p, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	var log strings.Builder
	cp, ok, err := loadTrainCheckpoint(ckpt, p.Net, 7, 24, &log)
	if err != nil || ok {
		t.Fatalf("wrong-kind checkpoint: got (%+v, %v, %v), want quiet fresh start", cp, ok, err)
	}
	if !strings.Contains(log.String(), "kind") {
		t.Fatalf("discard reason does not mention the kind: %s", log.String())
	}
	if _, err := os.Stat(ckpt + artifact.QuarantineSuffix); err != nil {
		t.Fatalf("wrong-kind checkpoint not quarantined: %v", err)
	}
}

// TestCheckpointStatus covers the CLI warning classifier.
func TestCheckpointStatus(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "train.ckpt")
	if got := CheckpointStatus(ckpt); got != "absent" {
		t.Fatalf("missing checkpoint status = %q, want absent", got)
	}
	if err := os.WriteFile(ckpt, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if got := CheckpointStatus(ckpt); got != "empty" {
		t.Fatalf("empty checkpoint status = %q, want empty", got)
	}
	if err := os.WriteFile(ckpt, []byte("something"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := CheckpointStatus(ckpt); got != "" {
		t.Fatalf("present checkpoint status = %q, want resumable", got)
	}
}
