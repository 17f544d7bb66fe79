package nn

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"ldmo/internal/tensor"
)

// freezeTestNet is a reduced predictor topology: stem conv+BN, pooling, two
// residual blocks (one with a projection shortcut), head.
func freezeTestNet(rng *rand.Rand) *Network {
	return NewNetwork(
		NewConv2D(rng, 1, 4, 7, 2, 3, false),
		NewBatchNorm2D(4),
		NewReLU(),
		NewMaxPool2D(3, 2, 1),
		NewBasicBlock(rng, 4, 4, 1),
		NewBasicBlock(rng, 4, 8, 2),
		NewGlobalAvgPool(),
		NewLinear(rng, 8, 16),
		NewReLU(),
		NewLinear(rng, 16, 1),
	)
}

func randBatch(rng *rand.Rand, n, size int) *tensor.Tensor {
	x := tensor.New(n, 1, size, size)
	for i := range x.Data {
		x.Data[i] = rng.Float64()
	}
	return x
}

// TestFreezeMatchesInferenceForward checks the BN-folding math: the frozen
// network reproduces the source network's inference outputs to rounding
// error (folding rescales weights instead of activations, so bitwise
// equality is not expected — 1e-9 relative is the contract).
func TestFreezeMatchesInferenceForward(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	net := freezeTestNet(rng)
	// Move the running statistics off their init values so the fold has
	// non-trivial means and variances to absorb.
	net.Forward(randBatch(rng, 4, 32), true)
	net.Forward(randBatch(rng, 4, 32), true)

	x := randBatch(rng, 3, 32)
	want := net.Forward(x, false)
	frozen := net.Freeze()
	got := frozen.Forward(x, false)
	if !got.SameShape(want) {
		t.Fatalf("shape %s vs %s", got.ShapeString(), want.ShapeString())
	}
	for i := range want.Data {
		if diff := math.Abs(got.Data[i] - want.Data[i]); diff > 1e-9*(math.Abs(want.Data[i])+1) {
			t.Fatalf("output %d: frozen %g vs source %g (diff %g)", i, got.Data[i], want.Data[i], diff)
		}
	}
}

// TestFreezeRemovesBatchNormParams pins the folded form: no batch-norm
// parameters or tracked statistics survive, and every conv gained a bias.
func TestFreezeRemovesBatchNormParams(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	net := freezeTestNet(rng)
	frozen := net.Freeze()
	convW, convB := 0, 0
	for _, p := range frozen.Params() {
		if strings.HasPrefix(p.Name, "bn.") {
			t.Fatalf("frozen network still has %s", p.Name)
		}
		switch p.Name {
		case "conv.weight":
			convW++
		case "conv.bias":
			convB++
		}
	}
	if convW == 0 || convW != convB {
		t.Fatalf("expected a bias per folded conv, got %d weights / %d biases", convW, convB)
	}
	if frozen.ParamCount() >= net.ParamCount() {
		t.Fatalf("frozen param count %d not below source %d", frozen.ParamCount(), net.ParamCount())
	}
}

// TestFreezeIndependence checks the frozen copy shares no state with the
// source: scribbling on the source weights must not move frozen outputs.
func TestFreezeIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	net := freezeTestNet(rng)
	x := randBatch(rng, 2, 32)
	frozen := net.Freeze()
	before := append([]float64(nil), frozen.Forward(x, false).Data...)
	for _, p := range net.Params() {
		for i := range p.Data {
			p.Data[i] = 999
		}
	}
	after := frozen.Forward(x, false)
	for i := range before {
		if after.Data[i] != before[i] {
			t.Fatalf("frozen output %d moved after source mutation: %g vs %g", i, after.Data[i], before[i])
		}
	}
}

// TestInferenceForwardZeroAlloc enforces the steady-state contract on the
// folded inference path: once the layer caches have grown, a forward pass
// performs no heap allocation.
func TestInferenceForwardZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool randomly drops puts under the race detector")
	}
	rng := rand.New(rand.NewSource(10))
	frozen := freezeTestNet(rng).Freeze()
	x := randBatch(rng, 2, 32)
	frozen.Forward(x, false)
	frozen.Forward(x, false)
	if avg := testing.AllocsPerRun(10, func() {
		frozen.Forward(x, false)
	}); avg != 0 {
		t.Fatalf("inference forward allocates %.1f times per run", avg)
	}
}

// TestTrainStepSteadyStateAllocs enforces the same contract on a complete
// training step: forward (training mode), loss, zero-grads, backward, Adam.
func TestTrainStepSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool randomly drops puts under the race detector")
	}
	rng := rand.New(rand.NewSource(11))
	net := freezeTestNet(rng)
	params := net.Params()
	adam := NewAdam(1e-3)
	loss := &MAE{}
	x := randBatch(rng, 4, 32)
	tgt := tensor.New(4, 1, 1, 1)
	step := func() {
		pred := net.Forward(x, true)
		_, grad := loss.Eval(pred, tgt)
		ZeroGrads(params)
		net.Backward(grad)
		adam.Step(params)
	}
	step() // grow layer caches and Adam moments
	step()
	if avg := testing.AllocsPerRun(5, step); avg != 0 {
		t.Fatalf("training step allocates %.1f times per run", avg)
	}
}

// plantedActivations fills an n x c x h x w tensor with the values a
// max-pool or ReLU rewrite most easily resolves differently: +0 and -0
// (ties whose winner decides the sign bit), NaN, ±Inf, subnormals and a
// few repeated finite values, plus one plane that is -Inf throughout.
func plantedActivations(rng *rand.Rand, n, c, h, w int) *tensor.Tensor {
	x := tensor.New(n, c, h, w)
	for i := range x.Data {
		switch rng.Intn(10) {
		case 0:
			x.Data[i] = 0
		case 1:
			x.Data[i] = math.Copysign(0, -1)
		case 2:
			x.Data[i] = math.NaN()
		case 3:
			x.Data[i] = math.Inf(-1)
		case 4:
			x.Data[i] = math.Inf(1)
		case 5:
			x.Data[i] = math.SmallestNonzeroFloat64 * float64(1-2*rng.Intn(2))
		case 6:
			x.Data[i] = -1.5
		default:
			x.Data[i] = rng.NormFloat64()
		}
	}
	for i := range x.Data[:h*w] {
		x.Data[i] = math.Inf(-1)
	}
	return x
}

// TestFrozenPoolAndReLUMatchForward pins the frozen max pool and ReLU, which
// record no argmax or mask, to the training layers' forward bits on planted
// ±0 ties, NaNs, all -Inf windows and padded borders (windows lying wholly
// in the padding included), and checks that Backward through either panics.
func TestFrozenPoolAndReLUMatchForward(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	x := plantedActivations(rng, 2, 3, 11, 9)
	same := func(what string, got, want *tensor.Tensor) {
		t.Helper()
		if !got.SameShape(want) {
			t.Fatalf("%s: shape %s vs %s", what, got.ShapeString(), want.ShapeString())
		}
		for i := range want.Data {
			if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
				t.Fatalf("%s: out[%d] = %g (frozen) vs %g", what, i, got.Data[i], want.Data[i])
			}
		}
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
	for _, g := range [][3]int{{3, 2, 1}, {2, 2, 0}, {3, 1, 1}, {3, 3, 2}, {1, 1, 1}, {4, 2, 3}} {
		net := NewNetwork(NewMaxPool2D(g[0], g[1], g[2]))
		frozen := net.Freeze()
		got := frozen.Forward(x, false)
		same(fmt.Sprintf("maxpool k%d s%d p%d", g[0], g[1], g[2]), got, net.Forward(x, false))
		mustPanic("Backward through a frozen max pool", func() { frozen.Backward(got) })
	}
	net := NewNetwork(NewReLU())
	frozen := net.Freeze()
	got := frozen.Forward(x, false)
	same("relu", got, net.Forward(x, false))
	mustPanic("Backward through a frozen ReLU", func() { frozen.Backward(got) })
}
