// Package factory is the multi-process dataset factory: a supervisor shards
// the layout space across N worker processes (the same binary re-exec'd in
// worker mode) that coordinate purely through the filesystem, crash-only by
// construction. There is no IPC and no shared memory — a worker claims shard
// i by atomically creating shard_NNNNN.lease, heartbeats the lease's mtime
// while labeling, and seals the result as the same shard_NNNNN.gob envelope a
// serial sampling.BuildDatasetCtx run would write. The supervisor reclaims
// leases whose holder died or whose heartbeat went stale, restarts dead
// workers under runx.Retry backoff, and quarantines a poison layout — one
// that kills its worker PoisonK times — as shard_NNNNN.poison, so the build
// always terminates with an explicit poison list instead of crash-looping.
//
// Because per-layout labeling is deterministic and every durable write is
// atomic, any interleaving of crashes, reclaims, and duplicate builds
// converges to the same sealed shard set, and the published manifest is
// byte-identical to an undisturbed single-process build.
//
// Shard lifecycle (one state per index, derived purely from which files
// exist):
//
//	unclaimed ──claim──▶ leased ──seal──▶ sealed
//	                       │
//	                       └──K deaths──▶ poison
package factory

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"ldmo/internal/artifact"
	"ldmo/internal/layout"
	"ldmo/internal/sampling"
)

// Sealed-envelope identities of the factory's durable records.
const (
	specKind        = "factory-config"
	specVersion     = 1
	poisonKind      = "factory-poison"
	poisonVersion   = 1
	manifestKind    = "dataset-manifest"
	manifestVersion = 1
)

// Coordination files inside the factory directory. Everything else in the
// directory (quarantine corpses, editor droppings) is ignored by every scan.
const (
	// SpecFile is the sealed build configuration, written once at factory
	// init; a resume must present a byte-identical Spec.
	SpecFile = "factory.gob"
	// ManifestFile is the sealed corpus manifest, written when every shard
	// is sealed or poisoned.
	ManifestFile = "manifest.gob"
)

// Environment variables handed to re-exec'd worker processes.
const (
	// EnvWorkerDir tells a worker-mode process which factory directory to
	// serve.
	EnvWorkerDir = "LDMO_FACTORY_DIR"
	// EnvWorkerToken is the supervisor-issued identity a worker records in
	// every lease it claims, tying leases to spawned processes.
	EnvWorkerToken = "LDMO_FACTORY_TOKEN"
)

// Per-shard coordination file names. The sealed shard itself is
// sampling.ShardFile (shard_NNNNN.gob).
func leasePath(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("shard_%05d.lease", i))
}

func poisonPath(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("shard_%05d.poison", i))
}

func crashPath(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("shard_%05d.crash", i))
}

func attemptsPath(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("shard_%05d.attempts", i))
}

// Persisted factory types claim their gob type IDs at init, after sampling's
// (factory imports sampling, fixing the order), so sealed spec bytes are a
// pure function of the configuration and resume can byte-compare them.
func init() {
	artifact.StabilizeGob(Spec{})
}

// Spec is the complete, immutable description of one corpus build: the layout
// list, the labeling configuration, and the failure-handling knobs. It is
// sealed into the factory directory at init; workers read it from there, so a
// worker process needs nothing but the directory path.
type Spec struct {
	// Layouts is the ordered layout list; shard i is Layouts[i].
	Layouts []layout.Layout
	// Sampling configures per-layout labeling. Its Checkpoint and Workers
	// fields are ignored (the factory directory is the checkpoint, and each
	// worker labels one layout at a time).
	Sampling sampling.Config
	// PoisonK is how many worker deaths a shard survives before it is
	// quarantined as poison; <=0 selects 3.
	PoisonK int
	// HeartbeatMS is the lease heartbeat period in milliseconds; <=0
	// selects 250.
	HeartbeatMS int64
	// StaleAfterMS is how stale a lease's heartbeat mtime must be before
	// the supervisor reclaims it; <=0 selects 4x the heartbeat.
	StaleAfterMS int64
	// Manifest configures dedupe and clustering of the published corpus.
	Manifest ManifestConfig
}

// normalized returns the Spec with defaults applied and the
// factory-irrelevant sampling fields cleared, so the sealed spec bytes are
// independent of the caller's incidental settings.
func (s Spec) normalized() Spec {
	s.Sampling.Checkpoint = ""
	s.Sampling.Workers = 0
	if s.PoisonK <= 0 {
		s.PoisonK = 3
	}
	if s.HeartbeatMS <= 0 {
		s.HeartbeatMS = 250
	}
	if s.StaleAfterMS <= 0 {
		s.StaleAfterMS = 4 * s.HeartbeatMS
	}
	s.Manifest = s.Manifest.normalized()
	return s
}

func (s Spec) heartbeat() time.Duration {
	return time.Duration(s.HeartbeatMS) * time.Millisecond
}

func (s Spec) staleAfter() time.Duration {
	return time.Duration(s.StaleAfterMS) * time.Millisecond
}

// encodeSpec produces the byte-stable gob encoding resume comparisons use.
func encodeSpec(s Spec) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(s); err != nil {
		return nil, fmt.Errorf("factory: encode spec: %w", err)
	}
	return buf.Bytes(), nil
}

// writeSpec seals the spec into dir.
func writeSpec(dir string, s Spec) error {
	payload, err := encodeSpec(s)
	if err != nil {
		return err
	}
	if err := artifact.WriteFile(filepath.Join(dir, SpecFile), specKind, specVersion, payload); err != nil {
		return fmt.Errorf("factory: write spec: %w", err)
	}
	return nil
}

// readSpecBytes loads the sealed spec payload from dir.
func readSpecBytes(dir string) ([]byte, error) {
	payload, err := artifact.ReadFile(filepath.Join(dir, SpecFile), specKind, specVersion)
	if err != nil {
		return nil, fmt.Errorf("factory: read spec: %w", err)
	}
	return payload, nil
}

// ReadSpec loads the sealed build configuration from a factory directory —
// the first thing a worker-mode process does.
func ReadSpec(dir string) (Spec, error) {
	payload, err := readSpecBytes(dir)
	if err != nil {
		return Spec{}, err
	}
	var s Spec
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("factory: spec undecodable (%v): %w", err, artifact.ErrCorrupt)
	}
	return s, nil
}

// lease is the JSON body of a shard_NNNNN.lease file: who claimed the shard.
// Liveness is carried by the file's mtime (the heartbeat), not the body.
type lease struct {
	Token string `json:"token"`
	PID   int    `json:"pid"`
	Index int    `json:"index"`
}

// claimLease atomically claims shard i for token. O_EXCL is the arbiter:
// exactly one claimant wins; ok=false means someone else holds the lease.
func claimLease(dir string, i int, token string) (ok bool, err error) {
	f, err := os.OpenFile(leasePath(dir, i), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if errors.Is(err, fs.ErrExist) {
		return false, nil
	}
	if err != nil {
		return false, fmt.Errorf("factory: claim shard %d: %w", i, err)
	}
	werr := json.NewEncoder(f).Encode(lease{Token: token, PID: os.Getpid(), Index: i})
	cerr := f.Close()
	if werr != nil || cerr != nil {
		return false, fmt.Errorf("factory: write lease %d: %w", i, errors.Join(werr, cerr))
	}
	return true, nil
}

// readLease parses a lease file. A lease that cannot be read or parsed (torn
// mid-write, or its writer died between create and write) comes back as an
// error; the supervisor falls back to pure mtime staleness for those.
func readLease(path string) (lease, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return lease{}, err
	}
	var l lease
	if err := json.Unmarshal(b, &l); err != nil {
		return lease{}, fmt.Errorf("factory: lease %s unparsable: %w", path, err)
	}
	return l, nil
}

// crashRecord is what a worker durably writes about its own death when the
// labeler panics or fails, just before exiting: the evidence the supervisor
// folds into the shard's attempt count. A SIGKILL'd worker leaves no record —
// its death is machine violence, not the layout's fault, and does not count
// toward poisoning.
type crashRecord struct {
	Index  int    `json:"index"`
	Token  string `json:"token"`
	PID    int    `json:"pid"`
	Reason string `json:"reason"`
	Stack  string `json:"stack,omitempty"`
}

func writeCrash(dir string, c crashRecord) error {
	return artifact.AtomicWrite(crashPath(dir, c.Index), func(w io.Writer) error {
		return json.NewEncoder(w).Encode(c)
	})
}

func readCrash(dir string, i int) (crashRecord, bool, error) {
	b, err := os.ReadFile(crashPath(dir, i))
	if errors.Is(err, fs.ErrNotExist) {
		return crashRecord{}, false, nil
	}
	if err != nil {
		return crashRecord{}, false, err
	}
	var c crashRecord
	if err := json.Unmarshal(b, &c); err != nil {
		return crashRecord{}, false, fmt.Errorf("factory: crash record %d unparsable: %w", i, err)
	}
	return c, true, nil
}

// attemptsRecord is the supervisor's persistent death count for one shard —
// what survives a supervisor restart so PoisonK bounds total deaths, not
// deaths per supervisor incarnation.
type attemptsRecord struct {
	Index      int    `json:"index"`
	Count      int    `json:"count"`
	LastReason string `json:"last_reason"`
	LastStack  string `json:"last_stack,omitempty"`
}

func writeAttempts(dir string, a attemptsRecord) error {
	return artifact.AtomicWrite(attemptsPath(dir, a.Index), func(w io.Writer) error {
		return json.NewEncoder(w).Encode(a)
	})
}

func readAttempts(dir string, i int) (attemptsRecord, bool, error) {
	b, err := os.ReadFile(attemptsPath(dir, i))
	if errors.Is(err, fs.ErrNotExist) {
		return attemptsRecord{}, false, nil
	}
	if err != nil {
		return attemptsRecord{}, false, err
	}
	var a attemptsRecord
	if err := json.Unmarshal(b, &a); err != nil {
		return attemptsRecord{}, false, fmt.Errorf("factory: attempts record %d unparsable: %w", i, err)
	}
	return a, true, nil
}

// PoisonRecord is the sealed quarantine verdict for a layout that killed its
// worker PoisonK times: which layout, how many deaths, and the last death's
// reason and stack (via runx.PanicError when the labeler panicked).
type PoisonRecord struct {
	Index    int    `json:"index"`
	Layout   string `json:"layout"`
	Attempts int    `json:"attempts"`
	Reason   string `json:"reason"`
	Stack    string `json:"stack,omitempty"`
}

func writePoison(dir string, p PoisonRecord) error {
	payload, err := json.Marshal(p)
	if err != nil {
		return fmt.Errorf("factory: encode poison %d: %w", p.Index, err)
	}
	if err := artifact.WriteFile(poisonPath(dir, p.Index), poisonKind, poisonVersion, payload); err != nil {
		return fmt.Errorf("factory: write poison %d: %w", p.Index, err)
	}
	return nil
}

// ReadPoison loads shard i's sealed poison record.
func ReadPoison(dir string, i int) (PoisonRecord, error) {
	payload, err := artifact.ReadFile(poisonPath(dir, i), poisonKind, poisonVersion)
	if err != nil {
		return PoisonRecord{}, fmt.Errorf("factory: read poison %d: %w", i, err)
	}
	var p PoisonRecord
	if err := json.Unmarshal(payload, &p); err != nil {
		return PoisonRecord{}, fmt.Errorf("factory: poison %d undecodable (%v): %w", i, err, artifact.ErrCorrupt)
	}
	return p, nil
}

// shardState is one shard's coordination state, derived purely from which
// files exist in the directory.
type shardState struct {
	sealed   bool
	leased   bool
	poisoned bool
	leaseMod time.Time
}

// finished reports the shard needs no more work.
func (st shardState) finished() bool { return st.sealed || st.poisoned }

// claimable reports the shard is open for a lease.
func (st shardState) claimable() bool { return !st.finished() && !st.leased }

// scanShards reads the factory directory once and derives every shard's
// state. Names that are not exactly shard_NNNNN.{gob,lease,poison} — crash
// and attempts records, quarantine corpses, the spec and manifest, foreign
// junk — are ignored, which is also what keeps sampling's resume scan safe
// inside a factory directory.
func scanShards(dir string, n int) ([]shardState, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("factory: scan %s: %w", dir, err)
	}
	states := make([]shardState, n)
	for _, e := range entries {
		i, suffix, ok := parseShardName(e.Name())
		if !ok || i >= n {
			continue
		}
		switch suffix {
		case ".gob":
			states[i].sealed = true
		case ".poison":
			states[i].poisoned = true
		case ".lease":
			states[i].leased = true
			if info, err := e.Info(); err == nil {
				states[i].leaseMod = info.ModTime()
			}
		}
	}
	return states, nil
}

// allDone reports whether every shard is sealed or poisoned — the factory's
// termination condition, visible to supervisor and workers alike.
func allDone(states []shardState) bool {
	for _, st := range states {
		if !st.finished() {
			return false
		}
	}
	return true
}

// parseShardName splits "shard_00042.lease" into (42, ".lease", true). The
// parse is strict — the index spelled exactly as the %05d writers spell it,
// exactly one known suffix — so "shard_00042.gob.quarantined",
// "shard_42.gob" and friends never masquerade as state, while indices past
// 99999, which %05d writes with more digits, still parse.
func parseShardName(name string) (int, string, bool) {
	rest, ok := strings.CutPrefix(name, "shard_")
	dot := strings.IndexByte(rest, '.')
	if !ok || dot < 0 {
		return 0, "", false
	}
	digits, suffix := rest[:dot], rest[dot:]
	switch suffix {
	case ".gob", ".lease", ".poison", ".crash", ".attempts":
	default:
		return 0, "", false
	}
	i, err := strconv.Atoi(digits)
	if err != nil || i < 0 || fmt.Sprintf("%05d", i) != digits {
		return 0, "", false
	}
	return i, suffix, true
}
