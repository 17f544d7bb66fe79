package litho

import (
	"math/rand"
	"sync"
	"testing"

	"ldmo/internal/simclock"
)

// newTestSim builds a simulator over the default two-kernel bank.
func newTestSim(t testing.TB, w, h int) *Simulator {
	t.Helper()
	s, err := NewSimulator(w, h, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func randMask(rng *rand.Rand, n int) []float64 {
	m := make([]float64, n)
	for i := range m {
		m[i] = rng.Float64()
	}
	return m
}

// TestParallelClockCharges verifies the accounting of one forward/backward
// pair: K convolutions each way, so an ILT lane charges 2K per iteration.
func TestParallelClockCharges(t *testing.T) {
	const w, h = 32, 32
	mask := randMask(rand.New(rand.NewSource(5)), w*h)
	out := make([]float64, w*h)
	s := newTestSim(t, w, h)
	clock := simclock.New(simclock.DefaultModel())
	s.SetClock(clock)
	f := s.NewFields()
	s.Aerial(mask, out, f)
	s.AerialBackward(out, f, out)
	want := int64(2 * s.KernelCount())
	if got := clock.Count(simclock.CostConvolution); got != want {
		t.Fatalf("charged %d convolutions, want %d", got, want)
	}
}

// TestPooledSimulatorsSharedClockStress is the race/stress test of the
// one-simulator-per-goroutine contract: N goroutines each drive their own
// serial simulator — all sharing one cached plan, kernel bank and kernel
// spectra — through Aerial+AerialBackward while all charge one shared clock.
// Run under -race (scripts/ci.sh does); the assertion checks the shared
// accounting.
func TestPooledSimulatorsSharedClockStress(t *testing.T) {
	const (
		w, h   = 32, 32
		lanes  = 4
		rounds = 8
	)
	clock := simclock.New(simclock.DefaultModel())
	var wg sync.WaitGroup
	kernels := 0
	for lane := 0; lane < lanes; lane++ {
		sim := newTestSim(t, w, h)
		sim.SetClock(clock)
		kernels = sim.KernelCount()
		rng := rand.New(rand.NewSource(int64(100 + lane)))
		mask := randMask(rng, w*h)
		wg.Add(1)
		go func(sim *Simulator, mask []float64) {
			defer wg.Done()
			out := make([]float64, w*h)
			grad := make([]float64, w*h)
			f := sim.NewFields()
			for r := 0; r < rounds; r++ {
				sim.Aerial(mask, out, f)
				sim.AerialBackward(out, f, grad)
			}
		}(sim, mask)
	}
	wg.Wait()
	want := int64(lanes * rounds * 2 * kernels)
	if got := clock.Count(simclock.CostConvolution); got != want {
		t.Fatalf("shared clock counted %d convolutions, want %d", got, want)
	}
}

func benchmarkSim(b *testing.B, backward bool) {
	const w, h = 224, 224
	s := newTestSim(b, w, h)
	mask := randMask(rand.New(rand.NewSource(1)), w*h)
	out := make([]float64, w*h)
	grad := make([]float64, w*h)
	f := s.NewFields()
	s.Aerial(mask, out, f)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if backward {
			s.AerialBackward(out, f, grad)
		} else {
			s.Aerial(mask, out, f)
		}
	}
}

func BenchmarkAerial(b *testing.B)         { benchmarkSim(b, false) }
func BenchmarkAerialBackward(b *testing.B) { benchmarkSim(b, true) }

// BenchmarkAerialCell times one Aerial plus one AerialBackward, an ILT
// lane's simulation per iteration, on the rasters the repository
// benchmark's workloads run: a 136x136 px cell at 4 nm, which pads to a
// 256x256 plan, and a 68x68 px cell at 8 nm, which pads to 128x128.
func BenchmarkAerialCell(b *testing.B) {
	for _, c := range []struct {
		name string
		side int
		p    Params
	}{{"136px-4nm", 136, DefaultParams()}, {"68px-8nm", 68, FastParams()}} {
		b.Run(c.name, func(b *testing.B) {
			s, err := NewSimulator(c.side, c.side, c.p)
			if err != nil {
				b.Fatal(err)
			}
			mask := randMask(rand.New(rand.NewSource(1)), c.side*c.side)
			out := make([]float64, len(mask))
			grad := make([]float64, len(mask))
			f := s.NewFields()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Aerial(mask, out, f)
				s.AerialBackward(out, f, grad)
			}
		})
	}
}
