package sampling

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"os"
	"reflect"
	"strings"
	"testing"

	"ldmo/internal/artifact"
	"ldmo/internal/faultinject"
	"ldmo/internal/geom"
	"ldmo/internal/grid"
	"ldmo/internal/model"
)

// TestReadShardRejectsCorruptionClasses: every corruption class on a dataset
// shard must come back wrapping the matching artifact sentinel, so BuildDataset
// can tell recoverable rot (quarantine and relabel) from everything else. The
// image cases are sealed intact, as a crafted file passes the keyless
// checksum: an image that is not a grid once loaded and then panicked in
// Dataset.Augmented.
func TestReadShardRejectsCorruptionClasses(t *testing.T) {
	valid := shard{
		Layout: "l0",
		Index:  0,
		Imgs:   []*grid.Grid{grid.New(3, 2, 1, geom.Point{})},
		Scores: []float64{1.5},
	}

	sealImage := func(img *grid.Grid) func(t *testing.T, dir string) {
		return func(t *testing.T, dir string) {
			s := valid
			s.Imgs = []*grid.Grid{img}
			if err := writeShard(dir, s); err != nil {
				t.Fatal(err)
			}
		}
	}
	cases := []struct {
		name    string
		corrupt func(t *testing.T, dir string)
		want    error
	}{
		{"bitflip", func(t *testing.T, dir string) {
			p := shardPath(dir, 0)
			b, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			b[len(b)-1] ^= 0x01
			if err := os.WriteFile(p, b, 0o644); err != nil {
				t.Fatal(err)
			}
		}, artifact.ErrCorrupt},
		{"truncation", func(t *testing.T, dir string) {
			p := shardPath(dir, 0)
			fi, err := os.Stat(p)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(p, fi.Size()/2); err != nil {
				t.Fatal(err)
			}
		}, artifact.ErrCorrupt},
		{"version-skew", func(t *testing.T, dir string) {
			if err := artifact.WriteFile(shardPath(dir, 0), shardKind, shardVersion+1, []byte("future")); err != nil {
				t.Fatal(err)
			}
		}, artifact.ErrVersionMismatch},
		{"wrong-kind", func(t *testing.T, dir string) {
			if err := artifact.WriteFile(shardPath(dir, 0), "train-checkpoint", shardVersion, []byte("imposter")); err != nil {
				t.Fatal(err)
			}
		}, artifact.ErrWrongKind},
		{"image-short-data", sealImage(&grid.Grid{W: 64, H: 64, Res: 4, Data: []float64{1, 2, 3}}), artifact.ErrCorrupt},
		{"image-zero-side", sealImage(&grid.Grid{W: 0, H: 0, Res: 4}), artifact.ErrCorrupt},
		{"image-zero-res", sealImage(&grid.Grid{W: 1, H: 1, Data: []float64{1}}), artifact.ErrCorrupt},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := writeShard(dir, valid); err != nil {
				t.Fatal(err)
			}
			tc.corrupt(t, dir)
			_, _, err := readShard(dir, 0, "l0")
			if !errors.Is(err, tc.want) {
				t.Fatalf("corrupted shard returned %v, want %v", err, tc.want)
			}
			if !artifact.Rejected(err) {
				t.Fatalf("error %v not recognized as a rejected envelope", err)
			}
		})
	}
}

// sealShard writes payload as shard index of dir inside a valid envelope.
func sealShard(t *testing.T, dir string, index int, payload []byte) {
	t.Helper()
	var env bytes.Buffer
	if err := artifact.Seal(&env, shardKind, shardVersion, payload); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(shardPath(dir, index), env.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// FuzzReadShard feeds readShard arbitrary shard payloads inside valid
// envelopes, seeded with the payloads of real sealed shards. The envelope's
// checksum has no key, so these bytes are the trust boundary of a resumed
// BuildDatasetCtx. readShard must never panic; it must reject what it
// cannot use with a typed error (or the stale-directory error for a shard
// of another layout); what it accepts must survive training's augmentation
// and re-seal to a shard that reads back to the same bytes.
func FuzzReadShard(f *testing.F) {
	cfg := testConfig()
	cfg.ImageSize = 16 // real shards, small enough to mutate quickly
	dir := f.TempDir()
	for li, l := range pool(f, 2) {
		s, err := computeShard(l, li, cfg)
		if err != nil {
			f.Fatal(err)
		}
		if err := writeShard(dir, s); err != nil {
			f.Fatal(err)
		}
		payload, err := artifact.ReadFile(shardPath(dir, li), shardKind, shardVersion)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload, li, l.Name)
	}
	encode := func(t *testing.T, s shard) []byte {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(s); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	f.Fuzz(func(t *testing.T, payload []byte, index int, name string) {
		dir := t.TempDir()
		sealShard(t, dir, index, payload)
		s, ok, err := readShard(dir, index, name)
		if err != nil {
			if !artifact.Rejected(err) && !strings.Contains(err.Error(), "stale checkpoint") {
				t.Fatalf("rejection without a typed error: %v", err)
			}
			return
		}
		if !ok {
			t.Fatal("a present shard read as missing")
		}
		ds := &model.Dataset{}
		for k, img := range s.Imgs {
			ds.Add(img, s.Scores[k])
		}
		ds.Augmented()
		enc := encode(t, s)
		sealShard(t, dir, index, enc)
		again, ok, err := readShard(dir, index, name)
		if err != nil || !ok {
			t.Fatalf("an accepted shard does not read back: ok=%v err=%v", ok, err)
		}
		if !bytes.Equal(encode(t, again), enc) {
			t.Fatal("an accepted shard does not re-encode identically")
		}
	})
}

// TestBuildDatasetQuarantinesBitFlippedShard is the acceptance test for shard
// recovery: interrupt a checkpointed build, flip a bit in one committed shard
// (via the artifact-bitflip point, at read time), and require the resumed
// build to quarantine exactly that shard, recompute just that layout, and
// still produce a dataset bit-identical to an uninterrupted build.
func TestBuildDatasetQuarantinesBitFlippedShard(t *testing.T) {
	defer faultinject.Reset()
	p := pool(t, 3)
	cfg := testConfig()
	cfg.Workers = 1 // serial lane makes the interrupt point exact

	want, wantGroups, err := BuildDataset(p, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	cfg.Checkpoint = dir
	faultinject.Set(faultinject.CancelAfter, "1")
	if _, _, err := BuildDatasetCtx(context.Background(), p, cfg, nil); err == nil {
		t.Fatal("interrupted build must return the context error")
	}
	faultinject.Reset()
	if got := CheckpointShards(dir, len(p)); got == 0 || got >= len(p) {
		t.Fatalf("interrupted build persisted %d/%d shards, want a strict partial set", got, len(p))
	}
	if _, err := os.Stat(shardPath(dir, 0)); err != nil {
		t.Fatalf("shard 0 missing after the interrupt: %v", err)
	}

	// One-shot, selector-matched: only shard 0 is corrupted, on its next read.
	faultinject.Set(faultinject.ArtifactBitflip, "shard_00000")
	var log strings.Builder
	ds, groups, err := BuildDatasetCtx(context.Background(), p, cfg, &log)
	if err != nil {
		t.Fatalf("resume over a rotten shard failed: %v\nlog:\n%s", err, log.String())
	}
	if !strings.Contains(log.String(), "discarding shard 0") ||
		!strings.Contains(log.String(), "quarantined to") ||
		!strings.Contains(log.String(), "relabeling") {
		t.Fatalf("quarantine not reported:\n%s", log.String())
	}
	if _, err := os.Stat(shardPath(dir, 0) + artifact.QuarantineSuffix); err != nil {
		t.Fatalf("rotten shard not quarantined: %v", err)
	}
	if !reflect.DeepEqual(ds, want) {
		t.Fatal("recovered dataset differs from the uninterrupted build")
	}
	if !reflect.DeepEqual(groups, wantGroups) {
		t.Fatal("recovered groups differ from the uninterrupted build")
	}
	// The recomputed shard was re-committed, so one more resume is a pure
	// stitch with no recomputation and no new quarantine.
	var relog strings.Builder
	ds2, _, err := BuildDatasetCtx(context.Background(), p, cfg, &relog)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(relog.String(), "discarding") {
		t.Fatalf("clean re-resume quarantined again:\n%s", relog.String())
	}
	if !reflect.DeepEqual(ds2, want) {
		t.Fatal("re-resumed dataset differs from the uninterrupted build")
	}
}

// TestBuildDatasetQuarantinesTruncatedShard: the torn-write flavor of the
// same recovery, driven by the artifact-truncate point.
func TestBuildDatasetQuarantinesTruncatedShard(t *testing.T) {
	defer faultinject.Reset()
	p := pool(t, 3)
	cfg := testConfig()
	cfg.Workers = 1
	cfg.Checkpoint = t.TempDir()

	want, _, err := BuildDataset(p, testConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := BuildDatasetCtx(context.Background(), p, cfg, nil); err != nil {
		t.Fatal(err)
	}

	faultinject.Set(faultinject.ArtifactTruncate, "shard_00001")
	var log strings.Builder
	ds, _, err := BuildDatasetCtx(context.Background(), p, cfg, &log)
	if err != nil {
		t.Fatalf("resume over a truncated shard failed: %v", err)
	}
	if !strings.Contains(log.String(), "discarding shard 1") {
		t.Fatalf("quarantine not reported:\n%s", log.String())
	}
	if !reflect.DeepEqual(ds, want) {
		t.Fatal("recovered dataset differs from the clean build")
	}
}
