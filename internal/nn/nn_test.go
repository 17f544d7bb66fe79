package nn

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"testing"

	"ldmo/internal/tensor"
)

// checkGradients validates a layer's analytic input and parameter gradients
// against central differences of the projected loss sum(w * out).
func checkGradients(t *testing.T, l Layer, x *tensor.Tensor, train bool, tol float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	out := l.Forward(x, train)
	w := make([]float64, out.Len())
	for i := range w {
		w[i] = rng.NormFloat64()
	}
	loss := func() float64 {
		o := l.Forward(x, train)
		s := 0.0
		for i, v := range o.Data {
			s += w[i] * v
		}
		return s
	}
	ZeroGrads(l.Params())
	gradOut := tensor.NewLike(out)
	copy(gradOut.Data, w)
	gin := l.Backward(gradOut)

	const eps = 1e-6
	// Input gradient at a few probes.
	probes := []int{0, x.Len() / 2, x.Len() - 1}
	for _, idx := range probes {
		save := x.Data[idx]
		x.Data[idx] = save + eps
		up := loss()
		x.Data[idx] = save - eps
		down := loss()
		x.Data[idx] = save
		num := (up - down) / (2 * eps)
		if math.Abs(num-gin.Data[idx]) > tol*(math.Abs(num)+1) {
			t.Fatalf("input grad[%d]: analytic %g, numeric %g", idx, gin.Data[idx], num)
		}
	}
	// Parameter gradients at a few probes per param.
	for _, p := range l.Params() {
		if p.NoGrad {
			continue
		}
		for _, idx := range []int{0, len(p.Data) / 2, len(p.Data) - 1} {
			save := p.Data[idx]
			p.Data[idx] = save + eps
			up := loss()
			p.Data[idx] = save - eps
			down := loss()
			p.Data[idx] = save
			num := (up - down) / (2 * eps)
			if math.Abs(num-p.Grad[idx]) > tol*(math.Abs(num)+1) {
				t.Fatalf("%s grad[%d]: analytic %g, numeric %g", p.Name, idx, p.Grad[idx], num)
			}
		}
	}
}

func randTensor(rng *rand.Rand, n, c, h, w int) *tensor.Tensor {
	x := tensor.New(n, c, h, w)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	return x
}

func TestConvGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := NewConv2D(rng, 2, 3, 3, 1, 1, true)
	checkGradients(t, l, randTensor(rng, 2, 2, 5, 5), true, 1e-5)
}

func TestConvStridedGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	l := NewConv2D(rng, 3, 4, 3, 2, 1, false)
	checkGradients(t, l, randTensor(rng, 2, 3, 7, 7), true, 1e-5)
}

func TestConvShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	l := NewConv2D(rng, 1, 8, 7, 2, 3, false)
	out := l.Forward(randTensor(rng, 1, 1, 64, 64), false)
	if out.C != 8 || out.H != 32 || out.W != 32 {
		t.Fatalf("conv1 out %s", out.ShapeString())
	}
}

func TestConvPanicsOnChannelMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	l := NewConv2D(rng, 2, 3, 3, 1, 1, false)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	l.Forward(randTensor(rng, 1, 3, 5, 5), false)
}

func TestBatchNormGradientsTrain(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	l := NewBatchNorm2D(3)
	checkGradients(t, l, randTensor(rng, 4, 3, 4, 4), true, 1e-4)
}

func TestBatchNormGradientsEval(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	l := NewBatchNorm2D(2)
	// Prime running stats with one training pass.
	l.Forward(randTensor(rng, 4, 2, 3, 3), true)
	checkGradients(t, l, randTensor(rng, 2, 2, 3, 3), false, 1e-5)
}

func TestBatchNormNormalizesTrainBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	l := NewBatchNorm2D(2)
	x := randTensor(rng, 8, 2, 4, 4)
	for i := range x.Data {
		x.Data[i] = x.Data[i]*3 + 5
	}
	out := l.Forward(x, true)
	for c := 0; c < 2; c++ {
		var mean, varv float64
		cnt := 0
		for n := 0; n < out.N; n++ {
			for i := 0; i < 16; i++ {
				mean += out.At(n, c, i/4, i%4)
				cnt++
			}
		}
		mean /= float64(cnt)
		for n := 0; n < out.N; n++ {
			for i := 0; i < 16; i++ {
				d := out.At(n, c, i/4, i%4) - mean
				varv += d * d
			}
		}
		varv /= float64(cnt)
		if math.Abs(mean) > 1e-9 || math.Abs(varv-1) > 1e-3 {
			t.Fatalf("channel %d normalized to mean %g var %g", c, mean, varv)
		}
	}
}

func TestBatchNormRunningStatsConverge(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	l := NewBatchNorm2D(1)
	for i := 0; i < 200; i++ {
		x := randTensor(rng, 8, 1, 4, 4)
		for j := range x.Data {
			x.Data[j] = x.Data[j]*2 + 3 // mean 3, var 4
		}
		l.Forward(x, true)
	}
	if math.Abs(l.runMean.Data[0]-3) > 0.3 {
		t.Fatalf("running mean = %g, want ~3", l.runMean.Data[0])
	}
	if math.Abs(l.runVar.Data[0]-4) > 0.8 {
		t.Fatalf("running var = %g, want ~4", l.runVar.Data[0])
	}
}

func TestReLUGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	// Keep values away from 0 so finite differences are valid.
	x := randTensor(rng, 2, 2, 3, 3)
	for i := range x.Data {
		if math.Abs(x.Data[i]) < 0.1 {
			x.Data[i] = 0.5
		}
	}
	checkGradients(t, NewReLU(), x, true, 1e-6)
}

func TestMaxPoolGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	l := NewMaxPool2D(3, 2, 1)
	// Distinct values so the argmax is stable under perturbation.
	x := tensor.New(1, 2, 6, 6)
	perm := rng.Perm(x.Len())
	for i := range x.Data {
		x.Data[i] = float64(perm[i])
	}
	checkGradients(t, l, x, true, 1e-6)
}

func TestMaxPoolShape(t *testing.T) {
	l := NewMaxPool2D(3, 2, 1)
	out := l.Forward(tensor.New(1, 1, 32, 32), false)
	if out.H != 16 || out.W != 16 {
		t.Fatalf("maxpool out %s", out.ShapeString())
	}
}

func TestGlobalAvgPoolGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	checkGradients(t, NewGlobalAvgPool(), randTensor(rng, 2, 3, 4, 4), true, 1e-6)
}

func TestGlobalAvgPoolValue(t *testing.T) {
	x := tensor.New(1, 1, 2, 2)
	copy(x.Data, []float64{1, 2, 3, 6})
	out := NewGlobalAvgPool().Forward(x, false)
	if out.Data[0] != 3 {
		t.Fatalf("avg = %g", out.Data[0])
	}
}

func TestLinearGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	l := NewLinear(rng, 12, 5)
	checkGradients(t, l, randTensor(rng, 3, 3, 2, 2), true, 1e-5)
}

func TestBasicBlockGradientsIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	b := NewBasicBlock(rng, 4, 4, 1)
	checkGradients(t, b, randTensor(rng, 2, 4, 5, 5), true, 1e-4)
}

func TestBasicBlockGradientsDownsample(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	b := NewBasicBlock(rng, 3, 6, 2)
	checkGradients(t, b, randTensor(rng, 2, 3, 6, 6), true, 1e-4)
}

func TestBasicBlockShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	b := NewBasicBlock(rng, 8, 16, 2)
	out := b.Forward(randTensor(rng, 1, 8, 16, 16), false)
	if out.C != 16 || out.H != 8 || out.W != 8 {
		t.Fatalf("block out %s", out.ShapeString())
	}
	if b.downConv == nil {
		t.Fatal("downsample path missing")
	}
	if nb := NewBasicBlock(rng, 8, 8, 1); nb.downConv != nil {
		t.Fatal("identity block got a downsample path")
	}
}

func TestMAELoss(t *testing.T) {
	pred := tensor.New(1, 1, 1, 4)
	tgt := tensor.New(1, 1, 1, 4)
	copy(pred.Data, []float64{1, 2, 3, 4})
	copy(tgt.Data, []float64{2, 2, 1, 4})
	v, grad := (&MAE{}).Eval(pred, tgt)
	if math.Abs(v-(1+0+2+0)/4.0) > 1e-12 {
		t.Fatalf("MAE = %g", v)
	}
	want := []float64{-0.25, 0, 0.25, 0}
	for i := range want {
		if grad.Data[i] != want[i] {
			t.Fatalf("MAE grad = %v", grad.Data)
		}
	}
}

func TestMSELoss(t *testing.T) {
	pred := tensor.New(1, 1, 1, 2)
	tgt := tensor.New(1, 1, 1, 2)
	copy(pred.Data, []float64{3, 0})
	copy(tgt.Data, []float64{1, 0})
	v, grad := (&MSE{}).Eval(pred, tgt)
	if v != 2 {
		t.Fatalf("MSE = %g", v)
	}
	if grad.Data[0] != 2 || grad.Data[1] != 0 {
		t.Fatalf("MSE grad = %v", grad.Data)
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	// Minimize (x - 3)^2 elementwise.
	p := newParam("x", 4)
	adam := NewAdam(0.1)
	for it := 0; it < 500; it++ {
		for i := range p.Data {
			p.Grad[i] = 2 * (p.Data[i] - 3)
		}
		adam.Step([]*Param{p})
	}
	for i, v := range p.Data {
		if math.Abs(v-3) > 1e-2 {
			t.Fatalf("param[%d] = %g, want 3", i, v)
		}
	}
}

func TestAdamSkipsNoGrad(t *testing.T) {
	p := newStateParam("state", 2)
	p.Data[0] = 7
	adam := NewAdam(0.1)
	adam.Step([]*Param{p})
	if p.Data[0] != 7 {
		t.Fatal("Adam modified NoGrad param")
	}
}

func TestNetworkTrainsSmallRegression(t *testing.T) {
	// A tiny conv net must fit a linear function of the input mean.
	rng := rand.New(rand.NewSource(15))
	net := NewNetwork(
		NewConv2D(rng, 1, 4, 3, 1, 1, false),
		NewBatchNorm2D(4),
		NewReLU(),
		NewGlobalAvgPool(),
		NewLinear(rng, 4, 1),
	)
	adam := NewAdam(0.01)
	var lastLoss float64
	for it := 0; it < 150; it++ {
		x := randTensor(rng, 8, 1, 8, 8)
		tgt := tensor.New(8, 1, 1, 1)
		for n := 0; n < 8; n++ {
			s := 0.0
			for i := 0; i < 64; i++ {
				s += x.Data[n*64+i]
			}
			tgt.Data[n] = s / 64 * 2
		}
		pred := net.Forward(x, true)
		loss, grad := (&MSE{}).Eval(pred, tgt)
		ZeroGrads(net.Params())
		net.Backward(grad)
		adam.Step(net.Params())
		lastLoss = loss
	}
	if lastLoss > 0.05 {
		t.Fatalf("training did not converge: loss %g", lastLoss)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	mk := func() *Network {
		r := rand.New(rand.NewSource(17))
		return NewNetwork(
			NewConv2D(r, 1, 2, 3, 1, 1, false),
			NewBatchNorm2D(2),
			NewReLU(),
			NewGlobalAvgPool(),
			NewLinear(r, 2, 1),
		)
	}
	a := mk()
	// Perturb and advance running stats so state differs from init.
	a.Forward(randTensor(rng, 4, 1, 6, 6), true)
	for _, p := range a.Params() {
		for i := range p.Data {
			p.Data[i] += rng.NormFloat64() * 0.01
		}
	}
	var buf bytes.Buffer
	if err := a.SaveParams(&buf); err != nil {
		t.Fatal(err)
	}
	b := mk()
	if err := b.LoadParams(&buf); err != nil {
		t.Fatal(err)
	}
	x := randTensor(rng, 2, 1, 6, 6)
	pa := a.Forward(x, false)
	pb := b.Forward(x, false)
	for i := range pa.Data {
		if pa.Data[i] != pb.Data[i] {
			t.Fatal("loaded network disagrees with saved network")
		}
	}
}

func TestLoadParamsRejectsMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	a := NewNetwork(NewLinear(rng, 4, 2))
	var buf bytes.Buffer
	if err := a.SaveParams(&buf); err != nil {
		t.Fatal(err)
	}
	b := NewNetwork(NewLinear(rng, 4, 3))
	if err := b.LoadParams(&buf); err == nil {
		t.Fatal("expected mismatch error")
	}
	c := NewNetwork(NewLinear(rng, 4, 2), NewReLU(), NewLinear(rng, 2, 1))
	buf.Reset()
	if err := a.SaveParams(&buf); err != nil {
		t.Fatal(err)
	}
	if err := c.LoadParams(&buf); err == nil {
		t.Fatal("expected count mismatch error")
	}
	// A stream with fewer names than vectors (a crafted file) is an error,
	// not an index past the names.
	buf.Reset()
	short := savedParams{Names: []string{"linear.weight"}, Data: [][]float64{make([]float64, 8), make([]float64, 2)}}
	if err := gob.NewEncoder(&buf).Encode(short); err != nil {
		t.Fatal(err)
	}
	if err := a.LoadParams(&buf); err == nil {
		t.Fatal("expected an error for a stream with fewer names than vectors")
	}
}

func TestParamCount(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	net := NewNetwork(NewLinear(rng, 3, 2))
	if got := net.ParamCount(); got != 3*2+2 {
		t.Fatalf("param count = %d", got)
	}
}

func TestSequentialEmptyParams(t *testing.T) {
	if p := NewSequential(NewReLU(), NewGlobalAvgPool()).Params(); len(p) != 0 {
		t.Fatalf("stateless layers returned params: %v", p)
	}
}
