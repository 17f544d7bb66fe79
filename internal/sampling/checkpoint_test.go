package sampling

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ldmo/internal/faultinject"
	"ldmo/internal/geom"
	"ldmo/internal/grid"
)

// TestBuildDatasetCheckpointResumeBitIdentical is the acceptance test for
// labeling resume: interrupt a checkpointed build partway (via the
// deterministic cancel-after fault point), confirm shards landed on disk,
// then resume and require the dataset to be bit-identical to an
// uninterrupted build.
func TestBuildDatasetCheckpointResumeBitIdentical(t *testing.T) {
	p := pool(t, 3)
	cfg := testConfig()
	cfg.Workers = 1 // serial lane makes the interrupt point exact

	var wantLog strings.Builder
	want, wantGroups, err := BuildDataset(p, cfg, &wantLog)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	cfg.Checkpoint = dir
	faultinject.Set(faultinject.CancelAfter, "1")
	_, _, err = BuildDatasetCtx(context.Background(), p, cfg, nil)
	faultinject.Reset()
	if err == nil {
		t.Fatal("interrupted build must return the context error")
	}
	if !strings.Contains(err.Error(), "interrupted") {
		t.Fatalf("unexpected interrupt error: %v", err)
	}
	got := CheckpointShards(dir, len(p))
	if got == 0 || got >= len(p) {
		t.Fatalf("interrupted build persisted %d/%d shards, want a strict partial set", got, len(p))
	}
	// The resume must reuse each valid sealed shard as it is: a relabeled
	// shard would be sealed into a new file by rename.
	type sealed struct {
		fi    os.FileInfo
		bytes []byte
	}
	read := func(i int) (sealed, error) {
		fi, err := os.Stat(shardPath(dir, i))
		if err != nil {
			return sealed{}, err
		}
		b, err := os.ReadFile(shardPath(dir, i))
		return sealed{fi, b}, err
	}
	before := map[int]sealed{}
	for i := range p {
		if s, err := read(i); err == nil {
			before[i] = s
		}
	}

	var resLog strings.Builder
	ds, groups, err := BuildDatasetCtx(context.Background(), p, cfg, &resLog)
	if err != nil {
		t.Fatalf("resume failed: %v", err)
	}
	if CheckpointShards(dir, len(p)) != len(p) {
		t.Fatal("resumed build did not complete the shard set")
	}
	for i, s := range before {
		now, err := read(i)
		if err != nil {
			t.Fatal(err)
		}
		if !os.SameFile(s.fi, now.fi) || !bytes.Equal(s.bytes, now.bytes) {
			t.Fatalf("resume rewrote the valid sealed shard %d", i)
		}
	}
	if !reflect.DeepEqual(ds, want) {
		t.Fatal("resumed dataset differs from the uninterrupted build")
	}
	if !reflect.DeepEqual(groups, wantGroups) {
		t.Fatal("resumed groups differ from the uninterrupted build")
	}
	if resLog.String() != wantLog.String() {
		t.Fatalf("resumed progress log diverged:\nresumed:\n%s\nclean:\n%s", resLog.String(), wantLog.String())
	}
}

// TestBuildDatasetCheckpointForeignFilesIgnored: a checkpoint directory
// littered with foreign files — editor droppings, lock and spec files of
// other tools, stray quarantine corpses — must resume cleanly and
// bit-identically, reading only shard_NNNNN.gob files and leaving the
// litter untouched.
func TestBuildDatasetCheckpointForeignFilesIgnored(t *testing.T) {
	p := pool(t, 3)
	cfg := testConfig()
	cfg.Workers = 1

	var wantLog strings.Builder
	want, wantGroups, err := BuildDataset(p, cfg, &wantLog)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	cfg.Checkpoint = dir
	junk := map[string]string{
		"notes.txt~":                  "editor dropping",
		"shard_00000.gob.lease":       `{"token":"t","pid":1,"index":0}`,
		"shard_00001.poison":          "poison record",
		"shard_00002.gob.quarantined": "old corpse",
		"factory.gob":                 "factory spec",
		".DS_Store":                   "finder litter",
	}
	for name, body := range junk {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	faultinject.Set(faultinject.CancelAfter, "1")
	_, _, err = BuildDatasetCtx(context.Background(), p, cfg, nil)
	faultinject.Reset()
	if err == nil {
		t.Fatal("interrupted build must return the context error")
	}

	var resLog strings.Builder
	ds, groups, err := BuildDatasetCtx(context.Background(), p, cfg, &resLog)
	if err != nil {
		t.Fatalf("resume amid foreign files failed: %v", err)
	}
	if !reflect.DeepEqual(ds, want) || !reflect.DeepEqual(groups, wantGroups) {
		t.Fatal("resume amid foreign files diverged from the clean build")
	}
	if resLog.String() != wantLog.String() {
		t.Fatalf("resumed progress log diverged:\n%s", resLog.String())
	}
	for name, body := range junk {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil || string(got) != body {
			t.Fatalf("foreign file %s disturbed: %q err=%v", name, got, err)
		}
	}
}

// TestBuildDatasetCheckpointStaleDirRejected: resuming against shards from a
// different layout list must fail loudly, not stitch foreign samples in.
func TestBuildDatasetCheckpointStaleDirRejected(t *testing.T) {
	p := pool(t, 3)
	cfg := testConfig()
	cfg.Workers = 1
	cfg.Checkpoint = t.TempDir()
	if _, _, err := BuildDatasetCtx(context.Background(), p, cfg, nil); err != nil {
		t.Fatal(err)
	}

	other := pool(t, 4) // different pool → different layout names
	if other[0].Name == p[0].Name {
		t.Skip("layout pools unexpectedly share names")
	}
	if _, _, err := BuildDatasetCtx(context.Background(), other, cfg, nil); err == nil {
		t.Fatal("stale checkpoint dir must be rejected")
	} else if !strings.Contains(err.Error(), "stale checkpoint") {
		t.Fatalf("unexpected stale-dir error: %v", err)
	}
}

// TestWriteShardAtomic: a committed shard round-trips exactly and leaves no
// temp litter behind; mismatched indices are rejected on read.
func TestWriteShardAtomic(t *testing.T) {
	dir := t.TempDir()
	s := shard{
		Layout: "l0",
		Index:  2,
		Imgs:   []*grid.Grid{grid.New(3, 2, 1, geom.Point{})},
		Scores: []float64{4.5},
	}
	s.Imgs[0].Data[1] = 0.25
	if err := writeShard(dir, s); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "shard_00002.gob" {
		t.Fatalf("unexpected checkpoint dir contents: %v", entries)
	}
	got, ok, err := readShard(dir, 2, "l0")
	if err != nil || !ok {
		t.Fatalf("readShard: ok=%v err=%v", ok, err)
	}
	if !reflect.DeepEqual(got, s) {
		t.Fatal("shard did not round-trip")
	}
	if _, ok, err := readShard(dir, 3, "l0"); err != nil || ok {
		t.Fatalf("missing shard must be ok=false, got ok=%v err=%v", ok, err)
	}
	if _, _, err := readShard(dir, 2, "other"); err == nil {
		t.Fatal("layout-name mismatch must be rejected")
	}
}

// TestCheckpointShardsCounts: the progress counter sees exactly the committed
// shard files.
func TestCheckpointShardsCounts(t *testing.T) {
	dir := t.TempDir()
	if n := CheckpointShards(dir, 5); n != 0 {
		t.Fatalf("empty dir reports %d shards", n)
	}
	for _, i := range []int{0, 3} {
		if err := os.WriteFile(shardPath(dir, i), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// Temp litter must not count.
	if err := os.WriteFile(filepath.Join(dir, "shard_abc.tmp"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if n := CheckpointShards(dir, 5); n != 2 {
		t.Fatalf("CheckpointShards = %d, want 2", n)
	}
}
