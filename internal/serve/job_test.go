package serve

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"testing"

	"ldmo/internal/gds"
	"ldmo/internal/layout"
)

// TestJobIDIgnoresNonCSVName: Layout() reads Name only for CSV uploads, so
// a relabelled cell, generator or GDS job is the same job, on the plain ID
// and on a server that folds engine provenance in. A CSV job's Name labels
// its layout and stays part of the ID, except for the default label. IDs of
// specs without a Name are the ones issued before Name was canonicalized.
func TestJobIDIgnoresNonCSVName(t *testing.T) {
	plain := JobSpec{Cell: "INV_X1"}
	if got := plain.ID(); got != "j-9d307b1cf793d38b" {
		t.Fatalf("unnamed spec ID drifted: %s", got)
	}
	seed := int64(7)
	gdsB64 := seedGDS(t)
	srv, _ := newTestServer(t, func(c *Config) { c.WarmStarter = &fakeWarm{digest: "aaaa"} })
	for _, spec := range []JobSpec{plain, {GenSeed: &seed, Fast: true}, {GDSB64: gdsB64}} {
		named := spec
		named.Name = "relabelled"
		if named.ID() != spec.ID() {
			t.Errorf("%+v: Name changed the ID of a non-CSV job", spec)
		}
		if srv.jobID(named) != srv.jobID(spec) {
			t.Errorf("%+v: Name changed the provenance job ID of a non-CSV job", spec)
		}
	}
	csv := JobSpec{CSV: "100,100,165,165\n"}
	named := csv
	named.Name = "cellA"
	if named.ID() == csv.ID() {
		t.Error("CSV Name labels the layout but left the ID unchanged")
	}
	named.Name = defaultUploadName
	if named.ID() != csv.ID() {
		t.Error("CSV spec naming the default label got a new ID")
	}
}

// seedGDS is a base64 GDSII stream holding one library cell.
func seedGDS(tb testing.TB) string {
	tb.Helper()
	l, err := layout.Cell("NAND2_X1")
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := gds.Write(&buf, []layout.Layout{l}); err != nil {
		tb.Fatal(err)
	}
	return base64.StdEncoding.EncodeToString(buf.Bytes())
}

// FuzzJobSpec drives arbitrary bytes through the JSON decode and Validate
// the submit handler runs, which must never panic. A spec that validates keeps its ID
// across a JSON round trip and when a non-CSV source is relabelled, and
// gets a new ID when any field that reaches Layout() or the flow
// configuration changes.
func FuzzJobSpec(f *testing.F) {
	f.Add([]byte(`{"cell":"INV_X1"}`))
	f.Add([]byte(`{"cell":"INV_X1","name":"inv","fast":true,"deadline_ms":500}`))
	f.Add([]byte(`{"gen_seed":7,"max_attempts":2,"warm":true}`))
	f.Add([]byte(`{"gds_b64":"` + seedGDS(f) + `","name":"g"}`))
	f.Add([]byte(`{"csv":"# window 0 0 400 400\n100,100,165,165\n","name":"c"}`))
	f.Add([]byte(`{"csv":"100,100,165,165\n","cell":"INV_X1"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var spec JobSpec
		if json.NewDecoder(bytes.NewReader(data)).Decode(&spec) != nil || spec.Validate() != nil {
			return
		}
		id := spec.ID()
		b, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		var back JobSpec
		if err := json.NewDecoder(bytes.NewReader(b)).Decode(&back); err != nil {
			t.Fatal(err)
		}
		if back.ID() != id {
			t.Fatalf("ID %s changed to %s across a JSON round trip of %s", id, back.ID(), b)
		}
		if spec.CSV == "" {
			relabelled := spec
			relabelled.Name += "x"
			if relabelled.ID() != id {
				t.Fatalf("relabelling non-CSV spec %s changed its ID", b)
			}
		}
		edits := map[string]func(s *JobSpec){
			"fast":         func(s *JobSpec) { s.Fast = !s.Fast },
			"deadline_ms":  func(s *JobSpec) { s.DeadlineMS++ },
			"max_attempts": func(s *JobSpec) { s.MaxAttempts++ },
			"warm":         func(s *JobSpec) { s.Warm = !s.Warm },
		}
		switch {
		case spec.Cell != "":
			edits["cell"] = func(s *JobSpec) { s.Cell += "x" }
		case spec.GenSeed != nil:
			edits["gen_seed"] = func(s *JobSpec) { v := *s.GenSeed ^ 1; s.GenSeed = &v }
		case spec.GDSB64 != "":
			edits["gds_b64"] = func(s *JobSpec) { s.GDSB64 += "AAAA" }
		case spec.CSV != "":
			edits["csv"] = func(s *JobSpec) { s.CSV += "\n0,0,1,1" }
			edits["name"] = func(s *JobSpec) { s.Name += "x" }
		}
		for field, edit := range edits {
			changed := spec
			edit(&changed)
			if changed.ID() == id {
				t.Fatalf("editing %s of %s kept ID %s", field, b, id)
			}
		}
	})
}
