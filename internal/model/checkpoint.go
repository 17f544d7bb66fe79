package model

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"

	"ldmo/internal/artifact"
	"ldmo/internal/nn"
)

// Sealed-envelope identity of a training checkpoint. The schema version is
// bumped whenever trainCheckpoint or the nn parameter wire format changes
// incompatibly; older files are then rejected with ErrVersionMismatch
// instead of being misdecoded.
const (
	trainCheckpointKind    = "train-checkpoint"
	trainCheckpointVersion = 1
	// prevSuffix names the retained previous-epoch checkpoint. Keeping the
	// last two means a corrupt (or torn, on non-atomic filesystems) latest
	// checkpoint costs one checkpoint interval of work, not the whole run.
	prevSuffix = ".prev"
)

// trainCheckpoint is the persisted training trajectory at an epoch boundary.
// Seed and Samples key the checkpoint to its run so a stale file (different
// dataset or config) is rejected instead of silently resuming the wrong
// training. The network parameters — including the BatchNorm running stats,
// which live in Params() as NoGrad entries — follow the header in the same
// gob stream.
type trainCheckpoint struct {
	Seed    int64
	Samples int
	Epoch   int
	History []float64
	Adam    nn.AdamState
}

// saveTrainCheckpoint persists the training state inside a sealed artifact
// envelope, atomically, demoting the existing checkpoint to path+".prev"
// first. A crash mid-write leaves the previous checkpoint intact; identical
// state always produces identical file bytes (gob type IDs are pinned at
// init via artifact.StabilizeGob).
func saveTrainCheckpoint(path string, net *nn.Network, cp trainCheckpoint) error {
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	if err := enc.Encode(cp); err != nil {
		return fmt.Errorf("model: encode checkpoint: %w", err)
	}
	if err := net.EncodeParams(enc); err != nil {
		return fmt.Errorf("model: encode checkpoint weights: %w", err)
	}
	if _, err := os.Stat(path); err == nil {
		if err := os.Rename(path, path+prevSuffix); err != nil {
			return fmt.Errorf("model: rotate checkpoint: %w", err)
		}
	}
	if err := artifact.WriteFile(path, trainCheckpointKind, trainCheckpointVersion, buf.Bytes()); err != nil {
		return fmt.Errorf("model: write checkpoint: %w", err)
	}
	return nil
}

// loadTrainCheckpoint restores a checkpoint into net, trying path first and
// the retained path+".prev" second. ok is false when there is nothing to
// resume from. A rejected envelope (bit flip, truncation, version skew,
// wrong kind) is quarantined to *.quarantined with a log line saying exactly
// what was discarded and why, and the previous checkpoint takes over; a
// checkpoint recorded for a different seed or dataset size is a hard error
// (it belongs to another run — recovery would train the wrong model).
func loadTrainCheckpoint(path string, net *nn.Network, seed int64, samples int, log io.Writer) (trainCheckpoint, bool, error) {
	for _, p := range []string{path, path + prevSuffix} {
		cp, ok, err := loadSealedCheckpoint(p, net, seed, samples)
		if err == nil {
			if ok {
				return cp, true, nil
			}
			continue // absent; fall through to the previous checkpoint
		}
		if artifact.Rejected(err) {
			q, qerr := artifact.Quarantine(p)
			if qerr != nil {
				return trainCheckpoint{}, false, fmt.Errorf("model: checkpoint %s rejected (%v) and not quarantinable: %w", p, err, qerr)
			}
			if log != nil {
				fmt.Fprintf(log, "model: discarding checkpoint %s (%v); quarantined to %s\n", p, err, q)
			}
			continue
		}
		return trainCheckpoint{}, false, err
	}
	return trainCheckpoint{}, false, nil
}

// loadSealedCheckpoint unseals and decodes one checkpoint file. ok is false
// when the file does not exist. The sealed checksum has no key, so a crafted
// file passes it: the header and every weight vector are checked against
// net before any weight is copied, and a file that does not fit is rejected
// as corrupt with net unchanged.
func loadSealedCheckpoint(path string, net *nn.Network, seed int64, samples int) (trainCheckpoint, bool, error) {
	payload, err := artifact.ReadFile(path, trainCheckpointKind, trainCheckpointVersion)
	if errors.Is(err, fs.ErrNotExist) {
		return trainCheckpoint{}, false, nil
	}
	if err != nil {
		return trainCheckpoint{}, false, err
	}
	dec := gob.NewDecoder(bytes.NewReader(payload))
	var cp trainCheckpoint
	if err := dec.Decode(&cp); err != nil {
		// The envelope checksum passed, so this is schema drift the version
		// field failed to capture — reject it as corrupt so it quarantines.
		return trainCheckpoint{}, false, fmt.Errorf("model: checkpoint %s undecodable (%v): %w", path, err, artifact.ErrCorrupt)
	}
	if cp.Seed != seed || cp.Samples != samples {
		return trainCheckpoint{}, false, fmt.Errorf(
			"model: checkpoint %s was written for seed %d over %d samples, run has seed %d over %d — stale checkpoint?",
			path, cp.Seed, cp.Samples, seed, samples)
	}
	if err := cp.fits(net.Params()); err != nil {
		return trainCheckpoint{}, false, fmt.Errorf("model: checkpoint %s %v: %w", path, err, artifact.ErrCorrupt)
	}
	if err := net.DecodeParams(dec); err != nil {
		return trainCheckpoint{}, false, fmt.Errorf("model: checkpoint %s weights undecodable (%v): %w", path, err, artifact.ErrCorrupt)
	}
	return cp, true, nil
}

// fits reports why cp cannot resume training over params, or nil when it
// can: one loss and at least one Adam step per completed epoch, a positive
// finite learning rate, and Adam moments that Adam.SetState and Adam.Step
// accept for params, nil for a NoGrad parameter and as long as its Data
// otherwise.
func (cp trainCheckpoint) fits(params []*nn.Param) error {
	if cp.Epoch < 0 || len(cp.History) != cp.Epoch {
		return fmt.Errorf("records epoch %d with %d losses", cp.Epoch, len(cp.History))
	}
	if cp.Adam.T < cp.Epoch {
		return fmt.Errorf("records %d Adam steps over %d epochs", cp.Adam.T, cp.Epoch)
	}
	if !(cp.Adam.LR > 0) || math.IsInf(cp.Adam.LR, 1) {
		return fmt.Errorf("records learning rate %g", cp.Adam.LR)
	}
	m, v := cp.Adam.M, cp.Adam.V
	if len(m) != len(params) || len(v) != len(params) {
		return fmt.Errorf("holds Adam moments for %d and %d parameters, network has %d", len(m), len(v), len(params))
	}
	for i, p := range params {
		if p.NoGrad {
			if m[i] != nil || v[i] != nil {
				return fmt.Errorf("holds Adam moments for parameter %d (%s), which takes no gradient", i, p.Name)
			}
		} else if len(m[i]) != len(p.Data) || len(v[i]) != len(p.Data) {
			return fmt.Errorf("holds Adam moments of %d and %d values for parameter %d (%s) of %d",
				len(m[i]), len(v[i]), i, p.Name, len(p.Data))
		}
	}
	return nil
}

// CheckpointStatus classifies what a resume would find at path, for CLIs
// that want to warn before silently starting from scratch: "" when a
// resumable checkpoint (or its retained predecessor) is present, otherwise a
// short human-readable reason ("absent", "empty", "unreadable: ...").
func CheckpointStatus(path string) string {
	reason := "absent"
	for _, p := range []string{path, path + prevSuffix} {
		fi, err := os.Stat(p)
		switch {
		case err == nil && fi.Size() > 0:
			return ""
		case err == nil:
			reason = "empty"
		case !errors.Is(err, fs.ErrNotExist):
			reason = fmt.Sprintf("unreadable: %v", err)
		}
	}
	return reason
}
