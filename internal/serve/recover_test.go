package serve

import (
	"encoding/json"
	"os"
	"testing"

	"ldmo/internal/artifact"
)

// sealJob writes a job's spec and state payloads into sealed envelopes, as
// a crafted store would hold them: the keyless envelope hash passes, so only
// the payload checks stand between these bytes and the server.
func sealJob(t testing.TB, st *Store, id string, spec, state []byte) {
	t.Helper()
	if err := artifact.WriteFile(st.specPath(id), kindSpec, specVersion, spec); err != nil {
		t.Fatal(err)
	}
	if err := artifact.WriteFile(st.statePath(id), kindState, stateVersion, state); err != nil {
		t.Fatal(err)
	}
}

func mustJSON(t testing.TB, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestRecoverQuarantinesForeignState: a sealed state that names another job,
// carries a status outside the lifecycle, or does not decode is quarantined,
// and the job is requeued from its spec under its own file's ID — the way a
// torn state is.
func TestRecoverQuarantinesForeignState(t *testing.T) {
	spec := testSpec(12)
	id := spec.ID()
	for name, payload := range map[string][]byte{
		"other job and bogus status": mustJSON(t, State{ID: "j-other", Status: "bogus"}),
		"other job":                  mustJSON(t, State{ID: "j-other", Status: StatusDone, Result: &Result{Decomposition: "x"}}),
		"bogus status":               mustJSON(t, State{ID: id, Status: "bogus"}),
		"undecodable":                []byte(`{"id":`),
	} {
		t.Run(name, func(t *testing.T) {
			st, _ := OpenStore(t.TempDir())
			sealJob(t, st, id, mustJSON(t, spec), payload)
			if _, err := st.GetState(id); !artifact.Rejected(err) {
				t.Fatalf("GetState: %v, want a rejection", err)
			}
			rep, err := st.Recover()
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Jobs) != 1 || len(rep.Quarantined) != 1 || len(rep.Lost) != 0 {
				t.Fatalf("report: %+v", rep)
			}
			j := rep.Jobs[0]
			if j.State.ID != id || j.State.Status != StatusQueued || !j.Requeued || j.State.Result != nil {
				t.Fatalf("recovered %+v, want %s requeued", j.State, id)
			}
			if _, err := os.Stat(st.statePath(id) + artifact.QuarantineSuffix); err != nil {
				t.Fatalf("state not quarantined: %v", err)
			}
			if got, err := st.GetState(id); err != nil || got.Status != StatusQueued {
				t.Fatalf("rebuilt state: %+v, %v", got, err)
			}
		})
	}
}

// TestRecoverRejectsInvalidSpec: a sealed spec the server would never have
// accepted (two layout sources) is reported lost, not requeued.
func TestRecoverRejectsInvalidSpec(t *testing.T) {
	st, _ := OpenStore(t.TempDir())
	id := testSpec(13).ID()
	sealJob(t, st, id, []byte(`{"cell":"INV_X1","gen_seed":3}`), mustJSON(t, State{ID: id, Status: StatusQueued}))
	if _, err := st.GetSpec(id); !artifact.Rejected(err) {
		t.Fatalf("GetSpec: %v, want a rejection", err)
	}
	rep, err := st.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Jobs) != 0 || len(rep.Lost) != 1 || rep.Lost[0] != id {
		t.Fatalf("report: %+v", rep)
	}
}

// FuzzStoreRecover feeds Recover a job whose spec and state payloads are
// arbitrary bytes inside valid envelopes. It must not panic, GetSpec and
// GetState must reject bad payloads with typed errors, and every job it
// returns must carry its file's ID, a lifecycle status and a valid spec.
func FuzzStoreRecover(f *testing.F) {
	spec := testSpec(8)
	id := spec.ID()
	specJSON := mustJSON(f, spec)
	for _, st := range []State{
		{ID: id, Client: "c", Status: StatusQueued, SubmittedUnix: 1},
		{ID: id, Client: "c", Status: StatusRunning, SubmittedUnix: 1, StartedUnix: 2},
		{ID: id, Client: "c", Status: StatusDone, SubmittedUnix: 1, FinishedUnix: 3,
			Result: &Result{Decomposition: "d", Candidates: 2, Attempts: 1, M1SHA256: "aa"}},
		{ID: id, Client: "c", Status: StatusFailed, Error: "boom", SubmittedUnix: 1, FinishedUnix: 3},
		{ID: "j-other", Status: "bogus"},
	} {
		f.Add(specJSON, mustJSON(f, st))
	}
	f.Add(mustJSON(f, JobSpec{CSV: "# window 0 0 400 400\n100,100,165,165\n", Name: "c"}), []byte(`null`))
	f.Add([]byte(`{"cell":"INV_X1","gen_seed":1}`), []byte(`{"id":`))
	f.Fuzz(func(t *testing.T, specPayload, statePayload []byte) {
		st, err := OpenStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		sealJob(t, st, id, specPayload, statePayload)
		_, specErr := st.GetSpec(id)
		_, stateErr := st.GetState(id)
		for _, err := range []error{specErr, stateErr} {
			if err != nil && !artifact.Rejected(err) {
				t.Fatalf("rejection without a typed error: %v", err)
			}
		}
		rep, err := st.Recover()
		if err != nil {
			t.Fatalf("Recover: %v", err)
		}
		if specErr != nil {
			if len(rep.Jobs) != 0 || len(rep.Lost) != 1 || rep.Lost[0] != id {
				t.Fatalf("rejected spec, report %+v", rep)
			}
			return
		}
		if len(rep.Jobs) != 1 || len(rep.Lost) != 0 {
			t.Fatalf("report %+v", rep)
		}
		j := rep.Jobs[0]
		if j.State.ID != id {
			t.Fatalf("job %q recovered from the files of %s", j.State.ID, id)
		}
		switch j.State.Status {
		case StatusQueued:
			if !j.Requeued {
				t.Fatal("queued job not requeued")
			}
		case StatusDone, StatusFailed:
			if j.Requeued || stateErr != nil {
				t.Fatalf("settled job %+v requeued", j.State)
			}
		default:
			t.Fatalf("recovered status %q", j.State.Status)
		}
		if (stateErr != nil) != (len(rep.Quarantined) == 1) {
			t.Fatalf("state error %v, quarantined %v", stateErr, rep.Quarantined)
		}
		if err := j.Spec.Validate(); err != nil {
			t.Fatalf("recovered an invalid spec: %v", err)
		}
	})
}
