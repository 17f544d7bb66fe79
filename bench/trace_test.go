package main

import (
	"math"
	"testing"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Layer: "core", Start: 0, End: 10},
		// Overlapping children count once; the part of a child outside its
		// parent is not subtracted from the parent.
		{ID: 2, Parent: 1, Layer: "model", Start: 1, End: 3},
		{ID: 3, Parent: 1, Layer: "model", Start: 2, End: 5},
		{ID: 4, Parent: 1, Layer: "ilt", Start: 7, End: 8},
		{ID: 5, Parent: 1, Layer: "ilt", Start: 9.5, End: 12},
		// A grandchild is subtracted from its own parent only.
		{ID: 6, Parent: 4, Layer: "litho", Start: 7.25, End: 7.75},
		{ID: 7, Layer: "bench", Start: 20, End: 21},
	}
	want := map[string]float64{
		"core":  10 - (4 + 1 + 0.5),
		"model": 2 + 3,
		"ilt":   (1 - 0.5) + 2.5,
		"litho": 0.5,
		"bench": 1,
	}
	got := selfTimes(spans)
	if len(got) != len(want) {
		t.Fatalf("selfTimes layers = %v, want %v", got, want)
	}
	for layer, w := range want {
		if math.Abs(got[layer]-w) > 1e-12 {
			t.Errorf("self time of %s = %v, want %v", layer, got[layer], w)
		}
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.begin(0, "core", "run", "x")
	tr.end(id, 3)
	if s, items, n := tr.sum("core", "run", map[int]bool{0: true}); id != 0 || s != 0 || items != 0 || n != 0 {
		t.Errorf("nil tracer: id %d, sum %v %d %d; want zeros", id, s, items, n)
	}
}

func TestTracerSumsByParent(t *testing.T) {
	tr := newTracer()
	req := tr.begin(0, "core", "run", "a")
	p1 := tr.begin(req, "model", "predict", "")
	tr.end(p1, 4)
	other := tr.begin(0, "core", "run", "b")
	p2 := tr.begin(other, "model", "predict", "")
	tr.end(p2, 5)
	tr.end(other, 1)
	tr.end(req, 1)
	if _, items, n := tr.sum("model", "predict", map[int]bool{req: true}); items != 4 || n != 1 {
		t.Errorf("sum under the first request = %d items in %d spans, want 4 in 1", items, n)
	}
	if _, items, n := tr.sum("model", "predict", map[int]bool{req: true, other: true}); items != 9 || n != 2 {
		t.Errorf("sum under both requests = %d items in %d spans, want 9 in 2", items, n)
	}
}
