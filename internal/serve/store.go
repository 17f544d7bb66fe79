package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"ldmo/internal/artifact"
)

// Artifact kinds and schema versions of the job store. The spec is written
// once at admission and never touched again; the state is rewritten (atomic
// temp+fsync+rename) on every lifecycle transition.
const (
	kindSpec  = "serve-job-spec"
	kindState = "serve-job-state"

	specVersion  uint16 = 1
	stateVersion uint16 = 1
)

// Store is the crash-safe on-disk job store: one sealed spec envelope plus
// one sealed state envelope per job. The split is what makes recovery
// lossless — the immutable spec survives any state-file corruption, so a
// torn state write costs a recomputation, never the job.
type Store struct {
	dir string
}

// OpenStore opens (creating if needed) a job store rooted at dir.
func OpenStore(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: store dir: %w", err)
	}
	return &Store{dir: dir}, nil
}

func (st *Store) specPath(id string) string  { return filepath.Join(st.dir, id+".spec") }
func (st *Store) statePath(id string) string { return filepath.Join(st.dir, id+".state") }

// PutSpec durably records a job's spec. Called exactly once, before the
// submission is acknowledged: a job is "accepted" only after this returns.
func (st *Store) PutSpec(id string, spec JobSpec) error {
	payload, err := json.Marshal(spec)
	if err != nil {
		return fmt.Errorf("serve: marshal spec %s: %w", id, err)
	}
	return artifact.WriteFile(st.specPath(id), kindSpec, specVersion, payload)
}

// PutState durably records a job's current lifecycle state.
func (st *Store) PutState(state State) error {
	payload, err := json.Marshal(state)
	if err != nil {
		return fmt.Errorf("serve: marshal state %s: %w", state.ID, err)
	}
	return artifact.WriteFile(st.statePath(state.ID), kindState, stateVersion, payload)
}

// GetSpec reads and verifies a job's spec envelope. The envelope's hash is
// keyless, so its payload is checked too: one that does not decode to a
// spec that passes Validate — the server persists no other — is rejected
// as artifact.ErrCorrupt.
func (st *Store) GetSpec(id string) (JobSpec, error) {
	payload, err := artifact.ReadFile(st.specPath(id), kindSpec, specVersion)
	if err != nil {
		return JobSpec{}, err
	}
	var spec JobSpec
	if err := json.Unmarshal(payload, &spec); err != nil {
		return JobSpec{}, fmt.Errorf("serve: decode spec %s (%v): %w", id, err, artifact.ErrCorrupt)
	}
	if err := spec.Validate(); err != nil {
		return JobSpec{}, fmt.Errorf("serve: spec %s invalid (%v): %w", id, err, artifact.ErrCorrupt)
	}
	return spec, nil
}

// GetState reads and verifies a job's state envelope. A payload that does
// not decode, names another job than its file, or carries a status outside
// the four lifecycle states is rejected as artifact.ErrCorrupt.
func (st *Store) GetState(id string) (State, error) {
	payload, err := artifact.ReadFile(st.statePath(id), kindState, stateVersion)
	if err != nil {
		return State{}, err
	}
	var state State
	if err := json.Unmarshal(payload, &state); err != nil {
		return State{}, fmt.Errorf("serve: decode state %s (%v): %w", id, err, artifact.ErrCorrupt)
	}
	if state.ID != id {
		return State{}, fmt.Errorf("serve: state %s names job %q: %w", id, state.ID, artifact.ErrCorrupt)
	}
	switch state.Status {
	case StatusQueued, StatusRunning, StatusDone, StatusFailed:
	default:
		return State{}, fmt.Errorf("serve: state %s has status %q: %w", id, state.Status, artifact.ErrCorrupt)
	}
	return state, nil
}

// RecoveredJob is one job reconstructed by Recover.
type RecoveredJob struct {
	Spec  JobSpec
	State State
	// Requeued reports the job came back as queued: it was queued or running
	// at the crash, or its state file was damaged and had to be discarded.
	Requeued bool
}

// RecoveryReport summarizes one Recover pass.
type RecoveryReport struct {
	// Jobs are the surviving jobs, submission-ordered.
	Jobs []RecoveredJob
	// Quarantined lists the quarantine paths of damaged envelopes.
	Quarantined []string
	// Lost lists job IDs whose *spec* envelope was damaged — with the spec
	// gone the job cannot be re-executed, so it is quarantined and dropped.
	// Specs are written before admission is acknowledged and never rewritten,
	// so this requires at-rest corruption of a sealed, fsynced file.
	Lost []string
}

// Recover scans the store and reconstructs every accepted job:
//
//   - done/failed jobs are returned as-is (they keep their results and feed
//     the dedupe cache);
//   - queued and running jobs are returned Requeued — a crash mid-run simply
//     recomputes, and determinism makes the recomputed result byte-identical;
//   - a damaged state envelope (torn write, bit rot — artifact.ErrCorrupt and
//     friends), or a sealed state GetState rejects (it does not decode, or
//     names another job or an unknown status), is quarantined via
//     artifact.Quarantine and the job rebuilt from its spec as queued;
//   - a damaged or rejected spec envelope quarantines both files and
//     reports the job Lost.
//
// Every returned job therefore carries its file's ID and a lifecycle
// status.
//
// I/O errors other than rejection (permissions, disk) abort the recovery.
func (st *Store) Recover() (RecoveryReport, error) {
	var rep RecoveryReport
	entries, err := os.ReadDir(st.dir)
	if err != nil {
		return rep, fmt.Errorf("serve: recover: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".spec") || e.IsDir() {
			continue
		}
		id := strings.TrimSuffix(name, ".spec")
		spec, err := st.GetSpec(id)
		if err != nil {
			if !artifact.Rejected(err) {
				return rep, err
			}
			if q, qerr := artifact.Quarantine(st.specPath(id)); qerr == nil {
				rep.Quarantined = append(rep.Quarantined, q)
			}
			if _, serr := os.Stat(st.statePath(id)); serr == nil {
				if q, qerr := artifact.Quarantine(st.statePath(id)); qerr == nil {
					rep.Quarantined = append(rep.Quarantined, q)
				}
			}
			rep.Lost = append(rep.Lost, id)
			continue
		}
		state, err := st.GetState(id)
		switch {
		case err == nil:
			// fine
		case errors.Is(err, fs.ErrNotExist):
			// Crash between spec and first state write: the job was accepted
			// (the spec is durable), so it restarts queued.
			state = State{ID: id, Status: StatusQueued}
		case artifact.Rejected(err):
			if q, qerr := artifact.Quarantine(st.statePath(id)); qerr == nil {
				rep.Quarantined = append(rep.Quarantined, q)
			}
			state = State{ID: id, Status: StatusQueued}
		default:
			return rep, err
		}
		requeued := false
		if state.Status == StatusQueued || state.Status == StatusRunning {
			state.Status = StatusQueued
			state.StartedUnix = 0
			requeued = true
			if err := st.PutState(state); err != nil {
				return rep, err
			}
		}
		rep.Jobs = append(rep.Jobs, RecoveredJob{Spec: spec, State: state, Requeued: requeued})
	}
	// Submission order makes requeue order (and thus fairness) reproducible.
	sort.Slice(rep.Jobs, func(a, b int) bool {
		ja, jb := rep.Jobs[a], rep.Jobs[b]
		if ja.State.SubmittedUnix != jb.State.SubmittedUnix {
			return ja.State.SubmittedUnix < jb.State.SubmittedUnix
		}
		return ja.State.ID < jb.State.ID
	})
	return rep, nil
}
