package core

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"ldmo/internal/faultinject"
	"ldmo/internal/geom"
	"ldmo/internal/grid"
	"ldmo/internal/layout"
	"ldmo/internal/model"
)

// contentScorer scores each image by its pixel mass — a deterministic
// function of the image alone, so it is batch-composition invariant like the
// real predictor (constScorer is positional and deliberately is not).
type contentScorer struct{}

func (contentScorer) PredictBatch(imgs []*grid.Grid) []float64 {
	out := make([]float64, len(imgs))
	for i, g := range imgs {
		s := 0.0
		for j, v := range g.Data {
			s += v * float64(j%7+1)
		}
		out[i] = s
	}
	return out
}

// countingScorer counts PredictBatch invocations.
type countingScorer struct {
	calls *atomic.Int64
	inner contentScorer
}

func (c countingScorer) PredictBatch(imgs []*grid.Grid) []float64 {
	c.calls.Add(1)
	return c.inner.PredictBatch(imgs)
}

// pipeLayouts builds n distinct valid layouts by sliding the two-row
// benchmark pattern horizontally.
func pipeLayouts(t *testing.T, n int) []layout.Layout {
	t.Helper()
	ls := make([]layout.Layout, n)
	for i := range ls {
		dx := (i * 5) % 28
		l := layout.Layout{Name: "tworow-" + string(rune('a'+i)), Window: geom.RectWH(0, 0, layout.TileNM, layout.TileNM)}
		for _, y := range []int{130, 290} {
			for _, x := range []int{66, 196, 326} {
				l.Patterns = append(l.Patterns, geom.RectWH(x+dx, y, layout.ContactNM, layout.ContactNM))
			}
		}
		ls[i] = l
	}
	return ls
}

// serialRef runs the serial flow over every layout.
func serialRef(t *testing.T, f *Flow, ls []layout.Layout) []PipeResult {
	t.Helper()
	out := make([]PipeResult, len(ls))
	for i, l := range ls {
		res, err := f.RunContext(context.Background(), l)
		out[i] = PipeResult{Res: res, Err: err}
	}
	return out
}

// mustEqualResult asserts bitwise equality of a pipelined result with its
// serial reference, with targeted messages before the catch-all DeepEqual.
func mustEqualResult(t *testing.T, tag string, got, want PipeResult) {
	t.Helper()
	if (got.Err == nil) != (want.Err == nil) {
		t.Fatalf("%s: err = %v, want %v", tag, got.Err, want.Err)
	}
	g, w := got.Res, want.Res
	if g.Chosen.Key() != w.Chosen.Key() {
		t.Fatalf("%s: chose %q, serial chose %q", tag, g.Chosen.Key(), w.Chosen.Key())
	}
	if !reflect.DeepEqual(g.PredScores, w.PredScores) {
		t.Fatalf("%s: scores %v != serial %v", tag, g.PredScores, w.PredScores)
	}
	if g.Attempts != w.Attempts || g.Forced != w.Forced || g.Interrupted != w.Interrupted ||
		g.ScorerFallback != w.ScorerFallback {
		t.Fatalf("%s: flow path diverged: %+v vs %+v", tag, g, w)
	}
	if g.ILT.L2 != w.ILT.L2 || g.ILT.Iters != w.ILT.Iters ||
		g.ILT.EPE.Violations != w.ILT.EPE.Violations ||
		g.ILT.Violations.Total() != w.ILT.Violations.Total() {
		t.Fatalf("%s: ILT metrics diverged", tag)
	}
	if w.ILT.M1 != nil {
		for name, pair := range map[string][2]*grid.Grid{
			"M1": {g.ILT.M1, w.ILT.M1}, "M2": {g.ILT.M2, w.ILT.M2}, "Printed": {g.ILT.Printed, w.ILT.Printed},
		} {
			for i := range pair[1].Data {
				if pair[0].Data[i] != pair[1].Data[i] {
					t.Fatalf("%s: %s differs at pixel %d", tag, name, i)
				}
			}
		}
	}
	if g.Seconds != w.Seconds {
		t.Fatalf("%s: model seconds %v != serial %v", tag, g.Seconds, w.Seconds)
	}
}

// TestPipelineMatchesSerialBitwise is the golden acceptance test: the
// pipelined flow returns, for every layout, exactly what serial RunContext
// returns — scores, chosen decomposition, optimized masks, model seconds —
// at every worker count, with both a synthetic and the real scorer.
func TestPipelineMatchesSerialBitwise(t *testing.T) {
	ls := pipeLayouts(t, 4)
	pred, err := model.New(model.TinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range []struct {
		name   string
		scorer Scorer
	}{
		{"contentScorer", contentScorer{}},
		{"tinyPredictor", pred},
	} {
		t.Run(sc.name, func(t *testing.T) {
			f := NewFlow(sc.scorer, fastConfig())
			want := serialRef(t, f, ls)
			for _, po := range []PipelineOptions{
				{Workers: 1},
				{Workers: 2},
				{Workers: 3},
				{Workers: 4},
			} {
				got, stats := f.RunPipeline(ls, po)
				for i := range want {
					mustEqualResult(t, sc.name, got[i], want[i])
				}
				if stats.Coalesce.Flushes != len(ls) {
					t.Fatalf("%d scorer calls, want one per layout (%d)", stats.Coalesce.Flushes, len(ls))
				}
			}
		})
	}
}

// TestPipelineCoalescesPredictions: each slot scores its own layout, so
// the scheduler makes one scorer call per layout with more than one
// candidate, exactly as the serial flow does, and counts each call once.
// The batch holds a layout whose generation fails and a single-contact
// layout with one candidate; neither is scored.
func TestPipelineCoalescesPredictions(t *testing.T) {
	one := layout.Layout{Name: "one-contact", Window: geom.RectWH(0, 0, layout.TileNM, layout.TileNM),
		Patterns: []geom.Rect{geom.RectWH(196, 196, layout.ContactNM, layout.ContactNM)}}
	ls := append(pipeLayouts(t, 6), layout.Layout{Name: "empty"}, one)
	var calls atomic.Int64
	f := NewFlow(countingScorer{calls: &calls}, fastConfig())
	results, stats := f.RunPipeline(ls, PipelineOptions{Workers: 3})
	scored, images := 0, 0
	for _, r := range results {
		if r.Res.Candidates > 1 {
			scored++
			images += r.Res.Candidates
		}
	}
	if got := int(calls.Load()); got != stats.Coalesce.Flushes {
		t.Fatalf("scorer saw %d calls, stats report %d flushes", got, stats.Coalesce.Flushes)
	}
	if c := results[len(ls)-1].Res.Candidates; c != 1 {
		t.Fatalf("the single-contact layout has %d candidates, want 1", c)
	}
	if stats.Coalesce.Flushes != scored {
		t.Fatalf("%d flushes, want one per layout with more than one candidate (%d of %d)",
			stats.Coalesce.Flushes, scored, len(ls))
	}
	if stats.Images != images {
		t.Fatalf("images = %d, want the scored layouts' %d candidates", stats.Images, images)
	}
	if stats.Layouts != len(ls) || stats.Wall <= 0 {
		t.Fatalf("stats not populated: %+v", stats)
	}
}

// TestPipelineCancelAfterDrains: rung 3 mid-pipeline. Arming cancel-after
// cancels the pipeline's own context after the first completed layout; the
// scheduler must drain without deadlock, completed layouts must be bitwise
// serial results, in-flight layouts land interrupted with their work
// attempted, and never-claimed layouts form a suffix with no work done.
func TestPipelineCancelAfterDrains(t *testing.T) {
	defer faultinject.Reset()
	ls := pipeLayouts(t, 6)
	f := NewFlow(contentScorer{}, fastConfig())
	// The armed fault makes the pipeline run under a cancellable context,
	// which turns on ILT best-so-far tracking; the serial reference must run
	// under an (uncancelled) cancellable context for like-for-like results.
	cctx, ccancel := context.WithCancel(context.Background())
	defer ccancel()
	want := make([]PipeResult, len(ls))
	for i, l := range ls {
		res, err := f.RunContext(cctx, l)
		want[i] = PipeResult{Res: res, Err: err}
	}

	faultinject.Set(faultinject.CancelAfter, "1")
	got, _ := f.RunPipeline(ls, PipelineOptions{Workers: 1})
	faultinject.Reset()

	completed, undispatched := 0, 0
	seenUndispatched := false
	for i, r := range got {
		switch {
		case r.Err == nil && !r.Res.Interrupted:
			completed++
			if seenUndispatched {
				t.Fatalf("layout %d completed after an undispatched layout: admission is not a prefix", i)
			}
			mustEqualResult(t, "completed", r, want[i])
		case r.Res.Candidates == 0:
			// Never admitted: no generation happened, only the tag.
			undispatched++
			seenUndispatched = true
			if !r.Res.Interrupted || !errors.Is(r.Err, context.Canceled) {
				t.Fatalf("undispatched layout %d: %+v, err %v", i, r.Res, r.Err)
			}
		default:
			// Admitted but cancelled mid-flight: drained through the stages,
			// tagged interrupted, candidates enumerated.
			if seenUndispatched {
				t.Fatalf("layout %d was admitted after an undispatched layout", i)
			}
			if !r.Res.Interrupted {
				t.Fatalf("in-flight layout %d not tagged interrupted: %+v", i, r.Res)
			}
		}
	}
	if completed < 1 {
		t.Fatal("cancel-after=1 must let at least one layout complete")
	}
	if undispatched < 1 {
		t.Fatal("want at least one never-admitted layout")
	}
}

// TestPipelineScorerPanicDegrades: rung 1 mid-pipeline. A scorer panic in a
// coalesced flush degrades every affected layout to generator order — the
// same ladder rung, and the same final results, as the serial flow under the
// identical sticky fault.
func TestPipelineScorerPanicDegrades(t *testing.T) {
	defer faultinject.Reset()
	ls := pipeLayouts(t, 3)
	f := NewFlow(contentScorer{}, fastConfig())

	faultinject.Set(faultinject.ScorerPanic, "")
	want := serialRef(t, f, ls)
	got, _ := f.RunPipeline(ls, PipelineOptions{Workers: 2})
	faultinject.Reset()

	for i := range want {
		if !want[i].Res.ScorerFallback {
			t.Fatalf("serial layout %d did not fall back; fault not armed?", i)
		}
		if !got[i].Res.ScorerFallback || got[i].Res.ScorerErr == nil {
			t.Fatalf("pipelined layout %d did not fall back: %+v", i, got[i].Res)
		}
		mustEqualResult(t, "scorer-panic", got[i], want[i])
	}
}

// TestPipelineIltDivergeDegrades: rung 2 mid-pipeline. With every candidate
// diverging, each layout walks its full feedback loop into the forced rerun
// — concurrently, coalesced, and still bitwise-equal to serial.
func TestPipelineIltDivergeDegrades(t *testing.T) {
	defer faultinject.Reset()
	ls := pipeLayouts(t, 3)
	cfg := fastConfig()
	cfg.Budget.CandidateIters = cfg.ILT.CheckEvery
	f := NewFlow(contentScorer{}, cfg)

	faultinject.Set(faultinject.ILTDiverge, "0")
	want := serialRef(t, f, ls)
	got, _ := f.RunPipeline(ls, PipelineOptions{Workers: 2})
	faultinject.Reset()

	for i := range want {
		if !want[i].Res.Forced {
			t.Fatalf("serial layout %d did not force; fault not armed?", i)
		}
		mustEqualResult(t, "ilt-diverge", got[i], want[i])
	}
}

// TestPipelineGenErrorIsPerLayout: a layout whose generation fails gets its
// own error slot without disturbing its batchmates.
func TestPipelineGenErrorIsPerLayout(t *testing.T) {
	ls := pipeLayouts(t, 3)
	ls[1] = layout.Layout{Name: "empty"} // no patterns: generation errors
	f := NewFlow(contentScorer{}, fastConfig())
	got, stats := f.RunPipeline(ls, PipelineOptions{Workers: 3})
	if got[1].Err == nil {
		t.Fatal("empty layout must error")
	}
	for _, i := range []int{0, 2} {
		if got[i].Err != nil || got[i].Res.ILT.Printed == nil {
			t.Fatalf("layout %d disturbed by batchmate failure: %+v", i, got[i].Err)
		}
	}
	if stats.Coalesce.Flushes != 2 {
		t.Fatalf("flushes = %d, want 2 (the failed layout is not scored)", stats.Coalesce.Flushes)
	}
}

// TestPipelineEmptyAndNilScorer: degenerate shapes terminate.
func TestPipelineEmptyAndNilScorer(t *testing.T) {
	f := NewFlow(nil, fastConfig())
	if res, _ := f.RunPipeline(nil, PipelineOptions{}); len(res) != 0 {
		t.Fatalf("empty input returned %d results", len(res))
	}
	// nil scorer: no layout is scored; the pipeline still matches serial.
	ls := pipeLayouts(t, 2)
	want := serialRef(t, f, ls)
	got, stats := f.RunPipeline(ls, PipelineOptions{Workers: 2})
	for i := range want {
		mustEqualResult(t, "nil-scorer", got[i], want[i])
	}
	if stats.Coalesce.Flushes != 0 {
		t.Fatalf("nil scorer must not be called: %+v", stats.Coalesce)
	}
}

// TestRunStreamPerJobConfigsMatchSerial: a stream run carries jobs of
// different flow configs (8 nm and 4 nm rasters, different attempt caps)
// sharing one scorer; each job's result is bitwise its own flow's serial
// RunContext, and the stats count every job once.
func TestRunStreamPerJobConfigsMatchSerial(t *testing.T) {
	ls := pipeLayouts(t, 5)
	cfg4 := DefaultConfig()
	cfg4.MaxAttempts = 2
	flows := []*Flow{NewFlow(contentScorer{}, fastConfig()), NewFlow(contentScorer{}, cfg4)}
	want := make([]PipeResult, len(ls))
	for i, l := range ls {
		res, err := flows[i%2].RunContext(context.Background(), l)
		want[i] = PipeResult{Res: res, Err: err}
	}

	got := make([]PipeResult, len(ls))
	var mu sync.Mutex
	claimed := 0
	stats := RunStream(context.Background(), 2, func(context.Context) (StreamJob, bool) {
		mu.Lock()
		defer mu.Unlock()
		if claimed == len(ls) {
			return StreamJob{}, false
		}
		i := claimed
		claimed++
		return StreamJob{Flow: flows[i%2], Layout: ls[i], Done: func(r PipeResult) { got[i] = r }}, true
	})
	for i := range want {
		mustEqualResult(t, "stream", got[i], want[i])
	}
	if stats.Layouts != len(ls) || stats.Coalesce.Flushes != len(ls) || stats.Workers != 2 {
		t.Fatalf("stats: %+v", stats)
	}
}
