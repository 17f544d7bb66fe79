package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ldmo/internal/grid"
	"ldmo/internal/model"
)

// span is one timed call into a layer, recorded by the benchmark around the
// layer's public entry point. Spans of one layout or job share Req.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent,omitempty"`
	Layer  string  `json:"layer"`
	Name   string  `json:"name"`
	Req    string  `json:"req,omitempty"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	Items  int     `json:"items,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per boundary.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	// attribution is the measured seconds per layout of each layer, written
	// beside the spans.
	attribution map[string]float64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) begin(parent int, layer, name, req string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Layer: layer, Name: name, Req: req, Start: now, End: now})
	return id
}

// end closes span id, recording how many items (images, layouts, calls) it
// covered.
func (t *tracer) end(id, items int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.spans[id-1].Items = items
	t.mu.Unlock()
}

// sum totals the durations, items and count of the spans of one layer and
// name whose parent is in parents.
func (t *tracer) sum(layer, name string, parents map[int]bool) (seconds float64, items, count int) {
	if t == nil {
		return 0, 0, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.Layer == layer && s.Name == name && parents[s.Parent] {
			seconds += s.End - s.Start
			items += s.Items
			count++
		}
	}
	return seconds, items, count
}

// len is the number of spans recorded so far.
func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// selfTimes returns, per layer, the summed self time of its spans: each
// span's duration minus the part of it that its children cover. Children
// that overlap each other are counted once.
func selfTimes(spans []span) map[string]float64 {
	children := map[int][][2]float64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]float64{s.Start, s.End})
		}
	}
	out := map[string]float64{}
	for _, s := range spans {
		out[s.Layer] += (s.End - s.Start) - covered(s.Start, s.End, children[s.ID])
	}
	return out
}

// covered is the length of [lo, hi] covered by the union of ivs.
func covered(lo, hi float64, ivs [][2]float64) float64 {
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	total, reach := 0.0, lo
	for _, iv := range ivs {
		a, b := max(iv[0], reach), min(iv[1], hi)
		if b > a {
			total += b - a
			reach = b
		}
	}
	return total
}

// write stores the spans and the per-layer self times as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.MarshalIndent(struct {
		Attribution map[string]float64 `json:"attributed_s_per_layout"`
		SelfSeconds map[string]float64 `json:"self_s_by_layer"`
		Spans       []span             `json:"spans"`
	}{t.attribution, selfTimes(t.spans), t.spans}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// timedScorer is the flow's core.Scorer in a traced run: it forwards to the
// predictor and records a model span per call, parented to the request the
// benchmark is running. It implements the predictor's allocation-free batch
// method too, so the pipelined flow keeps its fast path.
type timedScorer struct {
	p      *model.Predictor
	tr     *tracer
	parent atomic.Int64
}

func (s *timedScorer) PredictBatch(imgs []*grid.Grid) []float64 {
	id := s.tr.begin(int(s.parent.Load()), "model", "predict", "")
	out := s.p.PredictBatch(imgs)
	s.tr.end(id, len(imgs))
	return out
}

func (s *timedScorer) PredictBatchInto(imgs []*grid.Grid, out []float64) {
	id := s.tr.begin(int(s.parent.Load()), "model", "predict", "")
	s.p.PredictBatchInto(imgs, out)
	s.tr.end(id, len(imgs))
}
