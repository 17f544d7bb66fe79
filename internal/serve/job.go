// Package serve is the long-running mask-optimization service: a stdlib
// net/http JSON API that accepts layout jobs (library cell, generator seed,
// GDS upload, or CSV), runs the decompose -> predict -> ILT flow
// asynchronously on the pipelined scheduler, and exposes job status and
// results.
//
// Robustness is the package's defining property, layered end to end:
//
//   - admission control and fairness: a bounded job queue with round-robin
//     scheduling across clients; when full the server sheds load with 429 +
//     Retry-After instead of queuing unboundedly;
//   - per-job budgets and retry: every job runs under a runx.Budget, with
//     runx.Retry (exponential backoff, budget-aware) wrapping
//     transient failures before the job falls through core.Flow's
//     degradation ladder to a failed-with-partial-result;
//   - crash-safe job store: every state transition is sealed as an
//     internal/artifact envelope on disk, so a killed daemon resumes
//     in-flight and queued jobs on restart with zero loss, and torn or
//     bit-rotted job files are quarantined and the job requeued;
//   - dedupe cache: job IDs are content-addressed (layout spec + config), so
//     repeat submissions return the cached result instead of recomputing;
//   - lifecycle: /healthz, /readyz, and SIGTERM drain (stop admitting,
//     checkpoint running jobs back to queued, exit clean).
package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/base64"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"time"

	"ldmo/internal/core"
	"ldmo/internal/gds"
	"ldmo/internal/grid"
	"ldmo/internal/layout"
)

// JobSpec is the client-supplied description of one mask-optimization job:
// exactly one layout source plus flow options. The spec is the unit of
// content addressing — two submissions with byte-identical canonical specs
// are the same job.
type JobSpec struct {
	// Cell names a library cell (see layout.Cells).
	Cell string `json:"cell,omitempty"`
	// GenSeed generates a random layout deterministically from this seed,
	// exactly like `ldmo -gen SEED`.
	GenSeed *int64 `json:"gen_seed,omitempty"`
	// GDSB64 is a base64-encoded GDSII stream; the first structure is used.
	GDSB64 string `json:"gds_b64,omitempty"`
	// CSV is an inline dataset CSV layout.
	CSV string `json:"csv,omitempty"`
	// Name labels a CSV upload's layout (default "upload"). Every other
	// source names its own layout and ignores Name, so Name is not part of
	// those jobs' content hash.
	Name string `json:"name,omitempty"`

	// Fast selects the coarse 8nm raster instead of the 4nm default.
	Fast bool `json:"fast,omitempty"`
	// DeadlineMS bounds the job's wall time in milliseconds; past it the job
	// completes with the best state reached (Result.Interrupted). 0 defers
	// to the server's default budget.
	DeadlineMS int `json:"deadline_ms,omitempty"`
	// MaxAttempts bounds how many decomposition candidates are tried before
	// the forced best-effort run; 0 means all.
	MaxAttempts int `json:"max_attempts,omitempty"`
}

// maxDeadlineMS is the largest deadline_ms whose wall budget a
// time.Duration (int64 nanoseconds) can hold.
const maxDeadlineMS = math.MaxInt64 / int64(time.Millisecond)

// Validate rejects specs with zero or several layout sources or out-of-range
// options, without materializing the layout.
func (s JobSpec) Validate() error {
	n := 0
	if s.Cell != "" {
		n++
	}
	if s.GenSeed != nil {
		n++
	}
	if s.GDSB64 != "" {
		n++
	}
	if s.CSV != "" {
		n++
	}
	if n != 1 {
		return fmt.Errorf("spec needs exactly one of cell, gen_seed, gds_b64, csv (got %d)", n)
	}
	if s.GenSeed != nil && *s.GenSeed < 0 {
		return fmt.Errorf("gen_seed must be >= 0")
	}
	if s.DeadlineMS < 0 || s.MaxAttempts < 0 {
		return fmt.Errorf("deadline_ms and max_attempts must be >= 0")
	}
	if int64(s.DeadlineMS) > maxDeadlineMS {
		return fmt.Errorf("deadline_ms must be <= %d", maxDeadlineMS)
	}
	return nil
}

// deadline is the job's wall budget; 0 defers to the server's default.
func (s JobSpec) deadline() time.Duration {
	return time.Duration(s.DeadlineMS) * time.Millisecond
}

// Layout materializes the job's target layout. Deterministic: the same spec
// always produces the same layout, which is what makes job IDs
// content-addressed and restarted jobs bit-identical.
func (s JobSpec) Layout() (layout.Layout, error) {
	name := s.Name
	if name == "" {
		name = defaultUploadName
	}
	switch {
	case s.Cell != "":
		return layout.Cell(s.Cell)
	case s.GenSeed != nil:
		return layout.Generate(rand.New(rand.NewSource(*s.GenSeed)), layout.DefaultGenParams())
	case s.GDSB64 != "":
		raw, err := base64.StdEncoding.DecodeString(s.GDSB64)
		if err != nil {
			return layout.Layout{}, fmt.Errorf("gds_b64: %w", err)
		}
		ls, err := gds.Read(bytes.NewReader(raw))
		if err != nil {
			return layout.Layout{}, fmt.Errorf("gds_b64: %w", err)
		}
		if len(ls) == 0 {
			return layout.Layout{}, fmt.Errorf("gds_b64: stream contains no structures")
		}
		return ls[0], nil
	case s.CSV != "":
		return layout.ReadCSV(strings.NewReader(s.CSV), name)
	}
	return layout.Layout{}, fmt.Errorf("empty job spec")
}

// defaultUploadName labels a CSV upload that carries no Name.
const defaultUploadName = "upload"

// ID derives the job's content-addressed identifier: "j-" plus the first 16
// hex digits of the SHA-256 of the canonical spec JSON. Options are part of
// the hash — the same layout under a different raster or budget is a
// different job with a different (cacheable) result.
func (s JobSpec) ID() string {
	sum := sha256.Sum256(s.canonicalJSON())
	return "j-" + hex.EncodeToString(sum[:8])
}

// canonicalJSON is the spec's content-hash preimage: its JSON with Name
// cleared wherever Layout() does not read it (every source but CSV) or
// reads it as the default label, so a resubmission that only relabels a job
// is the same job. gds_b64 enters as the canonical encoding of the bytes it
// decodes to: StdEncoding skips line breaks and ignores non-zero padding
// bits, so every spelling of one GDS stream is one job. Text that does not
// decode hashes as sent. Specs without such a Name, and with canonically
// encoded GDS, hash exactly as they marshal.
func (s JobSpec) canonicalJSON() []byte {
	if s.CSV == "" || s.Name == defaultUploadName {
		s.Name = ""
	}
	if raw, err := base64.StdEncoding.DecodeString(s.GDSB64); err == nil {
		s.GDSB64 = base64.StdEncoding.EncodeToString(raw)
	}
	b, err := json.Marshal(s)
	if err != nil {
		// A JobSpec is plain data; Marshal cannot fail on it.
		panic(fmt.Sprintf("serve: marshal spec: %v", err))
	}
	return b
}

// Status is a job's lifecycle state.
type Status string

const (
	// StatusQueued: accepted and durably recorded, waiting for a worker.
	StatusQueued Status = "queued"
	// StatusRunning: claimed by the executor. A crash while running requeues
	// the job on restart.
	StatusRunning Status = "running"
	// StatusDone: finished with a result (possibly degraded or interrupted —
	// the Result flags say so).
	StatusDone Status = "done"
	// StatusFailed: no usable masks were produced; Error says why. A partial
	// Result may still be attached.
	StatusFailed Status = "failed"
)

// Result is the JSON-serializable outcome of one job. For a given spec it is
// byte-for-byte reproducible: every field derives from the deterministic flow
// (wall-clock timestamps live on State, not here), which is what the
// kill-and-restart test asserts.
type Result struct {
	// Decomposition is the committed candidate's canonical key.
	Decomposition string `json:"decomposition"`
	// Candidates / Attempts mirror core.Result.
	Candidates int `json:"candidates"`
	Attempts   int `json:"attempts"`
	// Printability metrics of the final masks.
	EPEViolations   int     `json:"epe_violations"`
	EPEMaxNM        float64 `json:"epe_max_nm"`
	EPEMeanNM       float64 `json:"epe_mean_nm"`
	L2              float64 `json:"l2"`
	PrintViolations int     `json:"print_violations"`
	// Seconds is the deterministic simclock model time.
	Seconds float64 `json:"seconds"`
	// Degradation flags, straight from the flow ladder.
	Forced         bool `json:"forced,omitempty"`
	Interrupted    bool `json:"interrupted,omitempty"`
	ScorerFallback bool `json:"scorer_fallback,omitempty"`
	// Retries counts transient-failure retries consumed by the job; Degraded
	// reports that the retry budget ran out and the degraded-ladder result
	// was accepted as final.
	Retries  int  `json:"retries,omitempty"`
	Degraded bool `json:"degraded,omitempty"`
	// SHA-256 of the mask and printed-image rasters, proving bitwise result
	// identity across runs and restarts without shipping megabytes of
	// float64s in every status poll.
	M1SHA256      string `json:"m1_sha256"`
	M2SHA256      string `json:"m2_sha256"`
	PrintedSHA256 string `json:"printed_sha256"`
}

// State is a job's durable record: everything needed to display, dedupe, and
// — for queued/running jobs — re-execute it after a crash.
type State struct {
	ID     string `json:"id"`
	Client string `json:"client"`
	Status Status `json:"status"`
	// Error is set on failed jobs (and on done-but-degraded jobs as a note).
	Error string `json:"error,omitempty"`
	// Result is set on done jobs, and on failed jobs that salvaged a partial.
	Result *Result `json:"result,omitempty"`
	// Wall-clock metadata; informational only, excluded from Result so the
	// result bytes stay reproducible.
	SubmittedUnix int64 `json:"submitted_unix"`
	StartedUnix   int64 `json:"started_unix,omitempty"`
	FinishedUnix  int64 `json:"finished_unix,omitempty"`
}

// resultOf converts a flow result into the job result record.
func resultOf(res core.Result) *Result {
	out := &Result{
		Decomposition:   res.Chosen.Key(),
		Candidates:      res.Candidates,
		Attempts:        res.Attempts,
		L2:              res.ILT.L2,
		EPEViolations:   res.ILT.EPE.Violations,
		EPEMaxNM:        res.ILT.EPE.MaxAbs,
		EPEMeanNM:       res.ILT.EPE.MeanAbs,
		PrintViolations: res.ILT.Violations.Total(),
		Seconds:         res.Seconds,
		Forced:          res.Forced,
		Interrupted:     res.Interrupted,
		ScorerFallback:  res.ScorerFallback,
		M1SHA256:        gridSHA(res.ILT.M1),
		M2SHA256:        gridSHA(res.ILT.M2),
		PrintedSHA256:   gridSHA(res.ILT.Printed),
	}
	return out
}

// gridSHA hashes a raster's float64 bit patterns; "" for a nil grid.
func gridSHA(g *grid.Grid) string {
	if g == nil {
		return ""
	}
	h := sha256.New()
	var b [8]byte
	for _, v := range g.Data {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}
