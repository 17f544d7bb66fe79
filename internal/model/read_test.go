package model

import (
	"bytes"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

func encodePredictor(t testing.TB, p *Predictor) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := p.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzPredictorRead feeds Read hostile predictor payloads, seeded with
// Write's encoding of testConfig and TinyConfig predictors. A sealed
// envelope's SHA-256 is keyless, so these bytes are the trust boundary of
// `ldmo -model` and `ldmo-serve -model`. Read must never panic and must
// reject what it cannot use with an error; whatever it accepts must
// re-encode to bytes that read back to an equal predictor and re-encode
// identically.
func FuzzPredictorRead(f *testing.F) {
	for _, cfg := range []Config{testConfig(), TinyConfig()} {
		p, err := New(cfg)
		if err != nil {
			f.Fatal(err)
		}
		p.Norm = ScoreNorm{Mean: 3.5, Std: 0.25}
		f.Add(encodePredictor(f, p))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Read(bytes.NewReader(data))
		if err != nil {
			if p != nil {
				t.Fatalf("Read returned a predictor with its error %v", err)
			}
			return
		}
		enc := encodePredictor(t, p)
		q, err := Read(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("an accepted predictor does not read back: %v", err)
		}
		if q.Cfg != p.Cfg || math.Float64bits(q.Norm.Mean) != math.Float64bits(p.Norm.Mean) ||
			math.Float64bits(q.Norm.Std) != math.Float64bits(p.Norm.Std) {
			t.Fatalf("read back %+v %+v, accepted %+v %+v", q.Cfg, q.Norm, p.Cfg, p.Norm)
		}
		pp, qp := p.Net.Params(), q.Net.Params()
		for i := range pp {
			for k, v := range pp[i].Data {
				if math.Float64bits(qp[i].Data[k]) != math.Float64bits(v) {
					t.Fatalf("param %d (%s) value %d reads back as %g, accepted %g", i, pp[i].Name, k, qp[i].Data[k], v)
				}
			}
		}
		if again := encodePredictor(t, q); !bytes.Equal(again, enc) {
			t.Fatal("an accepted predictor does not re-encode identically")
		}
	})
}

// TestReadRejectsArchitectureBeyondPayload replays the crafted predictor
// files that once made Load die out of memory or allocate a conv it then
// rejected: a TinyConfig payload whose config widens the last stage to
// 1,048,576 channels (a 79 TB network) or to 4,096. Read must return an
// error having allocated in proportion to the payload, never building the
// network the config describes.
func TestReadRejectsArchitectureBeyondPayload(t *testing.T) {
	for _, width := range []int{1 << 20, 4096} {
		p, err := New(TinyConfig())
		if err != nil {
			t.Fatal(err)
		}
		p.Cfg.StageChannels[3] = width
		payload := encodePredictor(t, p)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		q, err := Read(bytes.NewReader(payload))
		runtime.ReadMemStats(&after)
		if err == nil || q != nil {
			t.Fatalf("width %d: Read accepted a config its %d-byte payload cannot hold", width, len(payload))
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 4*uint64(len(payload)) {
			t.Fatalf("width %d: Read allocated %d bytes rejecting a %d-byte payload", width, alloc, len(payload))
		}
		t.Logf("width %d: %d bytes allocated for a %d-byte payload: %v", width, after.TotalAlloc-before.TotalAlloc, len(payload), err)
	}
}

// TestParamCountClosedForm holds paramCount, which Read trusts before it
// builds anything, to the networks New builds: the four fixed configs (in
// which the stem is as wide as stage 0, so stage 0 has no projection) and
// random small ones (most of which need it). A width whose count overflows
// saturates.
func TestParamCountClosedForm(t *testing.T) {
	cfgs := []Config{TinyConfig(), ResNet18Config(), testConfig()}
	rng := rand.New(rand.NewSource(21))
	for range 12 {
		c := Config{InputSize: 16, StemChannels: 1 + rng.Intn(6), HiddenDim: 1 + rng.Intn(9)}
		for s := range c.StageBlocks {
			c.StageBlocks[s], c.StageChannels[s] = 1+rng.Intn(3), 1+rng.Intn(6)
		}
		cfgs = append(cfgs, c)
	}
	for _, cfg := range cfgs {
		p, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		vectors, scalars := paramCount(cfg)
		if vectors != uint64(len(p.Net.Params())) || scalars != uint64(p.Net.ParamCount()) {
			t.Fatalf("%+v: closed form %d vectors / %d scalars, New built %d / %d",
				cfg, vectors, scalars, len(p.Net.Params()), p.Net.ParamCount())
		}
	}
	wide := TinyConfig()
	wide.StageChannels[3] = math.MaxInt
	if _, scalars := paramCount(wide); scalars != math.MaxUint64 {
		t.Fatalf("a %d-channel stage counts %d scalars, want saturation", math.MaxInt, scalars)
	}
}
