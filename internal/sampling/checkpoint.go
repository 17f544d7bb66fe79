package sampling

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

	"ldmo/internal/artifact"
	"ldmo/internal/grid"
	"ldmo/internal/layout"
)

// Sealed-envelope identity of a dataset shard. The schema version is bumped
// whenever the shard struct changes incompatibly, so a checkpoint directory
// from another build is rejected (and requarantined per shard) instead of
// stitching misdecoded samples into the dataset.
const (
	shardKind    = "dataset-shard"
	shardVersion = 1
)

// Persisted sampling types claim their gob type IDs at init, in a fixed
// order, keeping sealed shard bytes a pure function of the labeled state.
func init() {
	artifact.StabilizeGob(shard{})
}

// shard is the persisted labeling result of one layout: everything
// BuildDataset needs to stitch the layout into the dataset without re-running
// ILT. Shards are keyed by layout index and carry the layout name so a stale
// checkpoint directory (different pool or config) is rejected instead of
// silently corrupting the dataset.
type shard struct {
	Layout string
	Index  int
	Imgs   []*grid.Grid
	Scores []float64
}

// shardPath returns the shard file for layout index i. Resume reads only
// these names: anything else in the directory (quarantined corpses, other
// tools' files, editor droppings) is ignored.
func shardPath(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("shard_%05d.gob", i))
}

// writeShard persists a labeled layout as a sealed artifact, atomically. A
// crash or cancellation can never leave a half-written shard behind, and a
// shard that rots on disk is detected by checksum on the next resume.
func writeShard(dir string, s shard) error {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(s); err != nil {
		return fmt.Errorf("sampling: encode shard %d: %w", s.Index, err)
	}
	if err := artifact.WriteFile(shardPath(dir, s.Index), shardKind, shardVersion, buf.Bytes()); err != nil {
		return fmt.Errorf("sampling: write shard %d: %w", s.Index, err)
	}
	return nil
}

// readShard loads the shard of layout index i when present. ok is false when
// the shard does not exist. A rejected envelope (bit flip, truncation,
// version skew, wrong kind) comes back wrapping the artifact sentinel, and so
// does a sealed payload that is not a consistent shard (the envelope's
// checksum has no key) — the caller quarantines and relabels. A shard
// recorded for a different layout name is a hard error (the checkpoint
// directory belongs to another run).
func readShard(dir string, i int, layoutName string) (shard, bool, error) {
	path := shardPath(dir, i)
	payload, err := artifact.ReadFile(path, shardKind, shardVersion)
	if errors.Is(err, fs.ErrNotExist) {
		return shard{}, false, nil
	}
	if err != nil {
		return shard{}, false, err
	}
	var s shard
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&s); err != nil {
		return shard{}, false, fmt.Errorf("sampling: shard %s undecodable (%v): %w", path, err, artifact.ErrCorrupt)
	}
	if s.Index != i || s.Layout != layoutName {
		return shard{}, false, fmt.Errorf(
			"sampling: shard %d belongs to layout %q at index %d, expected %q — stale checkpoint dir?",
			i, s.Layout, s.Index, layoutName)
	}
	if len(s.Imgs) != len(s.Scores) {
		return shard{}, false, fmt.Errorf("sampling: shard %s inconsistent (%d images, %d scores): %w",
			path, len(s.Imgs), len(s.Scores), artifact.ErrCorrupt)
	}
	// Training flips, rotates and resamples every image, and grid.New
	// panics on a non-positive side or resolution. len(Data) is compared
	// by division so that W*H cannot overflow into a match.
	for k, g := range s.Imgs {
		if g == nil || g.W <= 0 || g.H <= 0 || g.Res <= 0 || len(g.Data)%g.W != 0 || len(g.Data)/g.W != g.H {
			return shard{}, false, fmt.Errorf("sampling: shard %s image %d is not a grid: %w", path, k, artifact.ErrCorrupt)
		}
	}
	return s, true, nil
}

// loadOrLabel is the load-or-label step of a checkpointed BuildDatasetCtx:
// it returns the sealed shard li from dir when a valid one is there, and
// otherwise labels layout l and seals the result. A shard that failed
// envelope verification (bit flip, torn write, version skew, wrong kind) or
// does not decode to a consistent shard is quarantined first; rejected then
// says why and quarantined names the corpse. Labeling is deterministic per
// layout, so recomputing just that layout keeps the build bit-identical.
// computed reports whether labeling ran.
func loadOrLabel(dir string, li int, l layout.Layout, cfg Config) (s shard, computed bool, rejected error, quarantined string, err error) {
	s, ok, err := readShard(dir, li, l.Name)
	switch {
	case err != nil && artifact.Rejected(err):
		rejected = err
		if quarantined, err = artifact.Quarantine(shardPath(dir, li)); err != nil {
			return shard{}, false, nil, "", fmt.Errorf("sampling: shard %d rejected (%v) and not quarantinable: %w", li, rejected, err)
		}
	case err != nil:
		return shard{}, false, nil, "", err
	case ok:
		return s, false, nil, "", nil
	}
	if s, err = computeShard(l, li, cfg); err != nil {
		return shard{}, false, rejected, quarantined, err
	}
	if err := writeShard(dir, s); err != nil {
		return shard{}, false, rejected, quarantined, err
	}
	return s, true, rejected, quarantined, nil
}

// CheckpointShards reports how many of the n layout shards exist in dir —
// the resume progress a caller can surface to the operator.
func CheckpointShards(dir string, n int) int {
	count := 0
	for i := 0; i < n; i++ {
		if _, err := os.Stat(shardPath(dir, i)); err == nil {
			count++
		}
	}
	return count
}
