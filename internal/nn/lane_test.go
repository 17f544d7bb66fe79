package nn

import (
	"math/rand"
	"testing"
)

// TestLaneSharesFrozenWeights checks the lane contract: a lane of a frozen
// network reads the frozen weights in place (no copy, no gradient buffer)
// and computes exactly the frozen network's bits, while Lane of an unfrozen
// network and Backward through a frozen conv refuse.
func TestLaneSharesFrozenWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	net := freezeTestNet(rng)
	net.Forward(randBatch(rng, 4, 32), true) // move the running statistics
	frozen := net.Freeze()
	lane := frozen.Lane()
	x := randBatch(rng, 3, 32)
	want := append([]float64(nil), frozen.Forward(x, false).Data...)
	got := lane.Forward(x, false)
	for i := range want {
		if got.Data[i] != want[i] {
			t.Fatalf("lane output %d = %g, frozen %g", i, got.Data[i], want[i])
		}
	}
	fp, lp := frozen.Params(), lane.Params()
	if len(fp) != len(lp) {
		t.Fatalf("lane has %d params, frozen network %d", len(lp), len(fp))
	}
	for i := range fp {
		if lp[i] != fp[i] || fp[i].Grad != nil || !fp[i].NoGrad {
			t.Fatalf("param %d (%s): lane does not share it, or it is trainable", i, fp[i].Name)
		}
	}
	ZeroGrads(fp)
	if fp[0].Grad != nil {
		t.Fatal("ZeroGrads gave a frozen param a gradient buffer")
	}

	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", what)
			}
		}()
		f()
	}
	mustPanic("Lane of an unfrozen network", func() { net.Lane() })
	mustPanic("Backward through a frozen network", func() { frozen.Backward(got) })
}
