package serve

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"strings"
	"testing"
	"time"

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
	srv, _ := newTestServer(t, func(c *Config) { c.Scorer = fakeDigestScorer{digest: "aaaa"} })
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

// TestJobIDCanonicalizesGDSBase64: StdEncoding skips line breaks and
// ignores non-zero padding bits, so every spelling of one GDS stream is one
// job, on the plain ID and on a server that folds engine provenance in. The
// canonical spelling keeps the ID it was issued before, and text that does
// not decode still hashes as sent.
func TestJobIDCanonicalizesGDSBase64(t *testing.T) {
	canon := JobSpec{GDSB64: "QQ=="}
	if got := canon.ID(); got != "j-f43923cd6b28fced" {
		t.Fatalf("canonical GDS spec ID drifted: %s", got)
	}
	gdsB64 := seedGDS(t)
	srv, _ := newTestServer(t, func(c *Config) { c.Scorer = fakeDigestScorer{digest: "aaaa"} })
	for _, pair := range [][2]JobSpec{
		{canon, {GDSB64: "QR=="}},
		{{GDSB64: gdsB64}, {GDSB64: gdsB64[:10] + "\n" + gdsB64[10:]}},
	} {
		if pair[0].ID() != pair[1].ID() {
			t.Errorf("gds_b64 %.16q and %.16q decode alike but get IDs %s and %s",
				pair[0].GDSB64, pair[1].GDSB64, pair[0].ID(), pair[1].ID())
		}
		if srv.jobID(pair[0]) != srv.jobID(pair[1]) {
			t.Errorf("gds_b64 %.16q and %.16q decode alike but get different provenance IDs", pair[0].GDSB64, pair[1].GDSB64)
		}
	}
	if (JobSpec{GDSB64: "Q"}).ID() == (JobSpec{GDSB64: "R"}).ID() {
		t.Error("two undecodable gds_b64 texts share an ID")
	}
}

// gdsRespellings returns other StdEncoding spellings of the bytes that
// decodable text b64 holds: line breaks inserted at a position chosen by at,
// and the canonical encoding with its unused padding bits set.
func gdsRespellings(b64 string, at int) []string {
	at %= len(b64) + 1
	out := []string{b64[:at] + "\n" + b64[at:], b64[:at] + "\r\n" + b64[at:] + "\n"}
	raw, _ := base64.StdEncoding.DecodeString(b64)
	canon := base64.StdEncoding.EncodeToString(raw)
	const alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
	last, unused := -1, 0
	switch {
	case strings.HasSuffix(canon, "=="):
		last, unused = len(canon)-3, 0x0f
	case strings.HasSuffix(canon, "="):
		last, unused = len(canon)-2, 0x03
	}
	if last >= 0 {
		c := alphabet[strings.IndexByte(alphabet, canon[last])|unused]
		out = append(out, canon[:last]+string(c)+canon[last+1:])
	}
	return out
}

// FuzzJobSpec drives arbitrary bytes through the JSON decode and Validate
// the submit handler runs, which must never panic. A spec that validates has
// a deadline_ms that converts to a wall budget without overflow, keeps its ID
// across a JSON round trip, when a non-CSV source is relabelled, and when
// its GDS upload is respelled (line breaks, padding bits), and gets a new
// ID when any field that reaches Layout() or the flow configuration
// changes.
func FuzzJobSpec(f *testing.F) {
	f.Add([]byte(`{"cell":"INV_X1"}`))
	f.Add([]byte(`{"cell":"INV_X1","name":"inv","fast":true,"deadline_ms":500}`))
	f.Add([]byte(`{"gen_seed":7,"max_attempts":2,"warm":true}`))
	f.Add([]byte(`{"gds_b64":"` + seedGDS(f) + `","name":"g"}`))
	f.Add([]byte(`{"csv":"# window 0 0 400 400\n100,100,165,165\n","name":"c"}`))
	f.Add([]byte(`{"csv":"100,100,165,165\n","cell":"INV_X1"}`))
	f.Add([]byte(`{"gds_b64":"QR==\n","fast":true}`))
	f.Add([]byte(`{"cell":"INV_X1","deadline_ms":9223372036854}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var spec JobSpec
		if json.NewDecoder(bytes.NewReader(data)).Decode(&spec) != nil || spec.Validate() != nil {
			return
		}
		if d := spec.deadline(); d < 0 || d/time.Millisecond != time.Duration(spec.DeadlineMS) {
			t.Fatalf("deadline_ms %d of %q converts to a wall budget of %v", spec.DeadlineMS, data, d)
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
		if _, err := base64.StdEncoding.DecodeString(spec.GDSB64); err == nil && spec.GDSB64 != "" {
			for _, v := range gdsRespellings(spec.GDSB64, len(data)) {
				respelled := spec
				respelled.GDSB64 = v
				if respelled.ID() != id {
					t.Fatalf("respelling gds_b64 of %s as %q changed its ID", b, v)
				}
			}
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
