package core

import (
	"testing"

	"ldmo/internal/grid"
	"ldmo/internal/layout"
)

// shiftInit is a deterministic fake warm-starter: it nudges every cold mask
// pixel toward mid-gray. Good enough to prove the plumbing without a trained
// net.
type shiftInit struct{ calls int }

func (s *shiftInit) WarmMasksInto(c1, c2 *grid.Grid, w1, w2 []float64) bool {
	s.calls++
	for i, v := range c1.Data {
		w1[i] = 0.7*v + 0.15
	}
	for i, v := range c2.Data {
		w2[i] = 0.7*v + 0.15
	}
	return true
}

// TestFlowWarmStarterEngaged pins the on-path: the configured warm-starter is
// consulted and the winning run is tagged.
func TestFlowWarmStarterEngaged(t *testing.T) {
	cell, err := layout.Cell("INV_X1")
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastConfig()
	init := &shiftInit{}
	cfg.WarmStarter = init
	res, err := NewFlow(nil, cfg).Run(cell)
	if err != nil {
		t.Fatal(err)
	}
	if init.calls == 0 {
		t.Fatal("warm-starter never consulted with the gate open")
	}
	if !res.ILT.WarmStart {
		t.Fatal("winning result not tagged WarmStart")
	}
}
