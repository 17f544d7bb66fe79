package nn

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"ldmo/internal/tensor"
)

// identityFirstNet starts with an identity-skip block, so the first
// residual add reads the tensor passed to Forward, and ends on an arena
// slot (a projection block), so the output itself is an activation map.
func identityFirstNet(rng *rand.Rand) *Network {
	return NewNetwork(
		NewBasicBlock(rng, 3, 3, 1),
		NewMaxPool2D(3, 2, 1),
		NewBasicBlock(rng, 3, 5, 2),
	)
}

func randInput(rng *rand.Rand, n, c, size int) *tensor.Tensor {
	x := tensor.New(n, c, size, size)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	return x
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: value %d = %g (%#x), want %g (%#x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestFusedConvReLUMatchesUnfused pins the fused output pass: freezing conv,
// BN, ReLU gives the bits of the frozen conv (BN folded) followed by a
// standalone frozen ReLU, with ±0, NaN, ±Inf and subnormals planted in the
// input and in the folded biases, for one image (the GEMM writes the output
// slot and the pass runs in place) and for three (the permute pass).
func TestFusedConvReLUMatchesUnfused(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	conv, bn := NewConv2D(rng, 2, 8, 3, 1, 1, false), NewBatchNorm2D(8)
	fused := NewNetwork(conv, bn, NewReLU()).Freeze()
	unfused := NewNetwork(conv, bn).Freeze()
	relu := NewNetwork(NewReLU()).Freeze()
	planted := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, -0.25}
	for _, net := range []*Network{fused, unfused} {
		b := net.Params()[1]
		if b.Name != "conv.bias" {
			t.Fatalf("frozen param 1 is %s, want conv.bias", b.Name)
		}
		copy(b.Data, planted)
	}
	for _, n := range []int{1, 3} {
		x := plantedActivations(rng, n, 2, 9, 7)
		want := relu.Forward(unfused.Forward(x, false), false)
		sameBits(t, "fused conv+ReLU", fused.Forward(x, false).Data, want.Data)
	}
}

// TestFrozenBatchMatchesSingles holds the one-image path (GEMM straight
// into the output slot) to the batch path (conv-product buffer, permute
// pass) on one lane: a batch of three gives, image by image, the bits of
// three single-image forwards.
func TestFrozenBatchMatchesSingles(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for _, c := range []struct {
		name string
		net  *Network
		x    *tensor.Tensor
	}{
		{"freezeTestNet", freezeTestNet(rng), randBatch(rng, 3, 32)},
		{"identity-first block", identityFirstNet(rng), randInput(rng, 3, 3, 17)},
	} {
		lane := c.net.Freeze().Lane()
		batch := slices.Clone(lane.Forward(c.x, false).Data)
		per := len(batch) / c.x.N
		img := c.x.C * c.x.H * c.x.W
		for i := 0; i < c.x.N; i++ {
			one := &tensor.Tensor{N: 1, C: c.x.C, H: c.x.H, W: c.x.W, Data: c.x.Data[i*img : (i+1)*img]}
			sameBits(t, c.name, lane.Forward(one, false).Data, batch[i*per:(i+1)*per])
		}
	}
}

// TestFrozenForwardLeavesInput checks that no frozen layer writes the
// tensor passed to Forward, at one image and at three: not a conv or max
// pool (they write arena slots), not a residual add (it runs in place in
// its own slot) and not a standalone ReLU (it keeps its own buffer).
func TestFrozenForwardLeavesInput(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for _, c := range []struct {
		name string
		net  *Network
		ch   int
	}{
		{"freezeTestNet", freezeTestNet(rng), 1},
		{"identity-first block", identityFirstNet(rng), 3},
		{"relu", NewNetwork(NewReLU()), 2},
		{"maxpool", NewNetwork(NewMaxPool2D(3, 1, 1)), 2},
	} {
		frozen := c.net.Freeze()
		for _, n := range []int{1, 3} {
			x := plantedActivations(rng, n, c.ch, 16, 16)
			before := slices.Clone(x.Data)
			frozen.Forward(x, false)
			frozen.Lane().Forward(x, false)
			sameBits(t, c.name+" input after Forward", x.Data, before)
		}
	}
}

// TestFrozenLanesForwardConcurrently runs a frozen network and its lane,
// each on its own arena, from two goroutines over one shared input,
// alternating one-image and three-image batches, and requires every output
// to match the sequential one. Under -race it also catches any write to
// the shared input or to the other lane's arena.
func TestFrozenLanesForwardConcurrently(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	frozen := freezeTestNet(rng).Freeze()
	lane := frozen.Lane()
	x3 := randBatch(rng, 3, 32)
	x1 := &tensor.Tensor{N: 1, C: 1, H: 32, W: 32, Data: x3.Data[:32*32]}
	inputs := []*tensor.Tensor{x1, x3}
	want := make([][]float64, len(inputs))
	for i, x := range inputs {
		want[i] = slices.Clone(frozen.Forward(x, false).Data)
	}
	var wg sync.WaitGroup
	bad := make([]int, 2)
	for g, net := range []*Network{frozen, lane} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 20; r++ {
				i := (r + g) % len(inputs)
				got := net.Forward(inputs[i], false).Data
				for k := range want[i] {
					if math.Float64bits(got[k]) != math.Float64bits(want[i][k]) {
						bad[g]++
						break
					}
				}
			}
		}()
	}
	wg.Wait()
	if bad[0] != 0 || bad[1] != 0 {
		t.Fatalf("concurrent forwards differ from sequential ones: frozen %d, lane %d of 20", bad[0], bad[1])
	}
}
