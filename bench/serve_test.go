package main

import (
	"math"
	"reflect"
	"testing"
	"time"
)

// The open-loop schedule and job mix are drawn from the seed alone, before
// the run, so every run of a seed offers the service the same load.
func TestScheduleIsSeedDeterministic(t *testing.T) {
	a := schedule(7, 8, 20*time.Second)
	if b := schedule(7, 8, 20*time.Second); !reflect.DeepEqual(a, b) {
		t.Fatal("two schedules of seed 7 differ")
	}
	if c := schedule(8, 8, 20*time.Second); reflect.DeepEqual(a, c) {
		t.Fatal("seeds 7 and 8 give the same schedule")
	}
}

func TestScheduleMix(t *testing.T) {
	const rate, d = 8.0, 1000 * time.Second
	arr := schedule(3, rate, d)
	if got := float64(len(arr)) / d.Seconds(); got != rate {
		t.Errorf("arrival rate %.3f/s, want %v/s", got, rate)
	}
	kinds := map[string]int{}
	seen := map[int64]bool{}
	var last time.Duration
	for i, a := range arr {
		if a.At < last || a.At >= d {
			t.Fatalf("arrival %d at %v: not ordered within [0, %v)", i, a.At, d)
		}
		last = a.At
		kinds[a.Kind]++
		gs := *a.Spec.GenSeed
		switch {
		case a.Kind == "resubmit" && !seen[gs]:
			t.Fatalf("arrival %d resubmits gen_seed %d, which was never submitted", i, gs)
		case a.Kind != "resubmit" && seen[gs]:
			t.Fatalf("arrival %d: new job reuses gen_seed %d", i, gs)
		case a.Spec.Fast != (a.Kind == "new-8nm") && a.Kind != "resubmit":
			t.Fatalf("arrival %d: kind %s with fast=%v", i, a.Kind, a.Spec.Fast)
		}
		seen[gs] = true
	}
	for kind, want := range map[string]float64{"new-8nm": 0.80, "new-4nm": 0.05, "resubmit": 0.15} {
		if got := float64(kinds[kind]) / float64(len(arr)); math.Abs(got-want) > 0.001 {
			t.Errorf("%s share %.3f, want %.2f", kind, got, want)
		}
	}
	// Every block of consecutive arrivals holds the mix exactly, closed by
	// its 4 nm job.
	for lo := 0; lo+mixBlock <= len(arr); lo += mixBlock {
		n4 := 0
		for _, a := range arr[lo : lo+mixBlock] {
			if a.Kind == "new-4nm" {
				n4++
			}
		}
		if last := arr[lo+mixBlock-1].Kind; n4 != 1 || last != "new-4nm" {
			t.Fatalf("arrivals %d-%d hold %d new 4 nm jobs and end with a %s job; want one, last", lo, lo+mixBlock-1, n4, last)
		}
	}
}

// Splitting a schedule into bursts keeps every arrival, in order, at its
// time since the first arrival of its burst, and leaves the schedule as it
// was.
func TestBursts(t *testing.T) {
	arr := schedule(5, 32, 2*time.Second)
	first := arr[0].At
	bs := bursts(arr, 8)
	if len(bs) != 8 || len(bs[0]) != 8 {
		t.Fatalf("%d bursts of %d arrivals from %d, want 8 of 8", len(bs), len(bs[0]), len(arr))
	}
	i := 0
	for k, b := range bs {
		for _, a := range b {
			if want := arr[i].At - arr[k*8].At; a.At != want || a.Spec.GenSeed != arr[i].Spec.GenSeed {
				t.Fatalf("burst %d: arrival %d at %v, want %v", k, i, a.At, want)
			}
			i++
		}
		if b[0].At != 0 {
			t.Fatalf("burst %d starts at %v", k, b[0].At)
		}
	}
	if arr[0].At != first {
		t.Fatal("bursts changed the schedule")
	}
	if got := bursts(arr[:10], 8); len(got) != 2 || len(got[1]) != 2 {
		t.Fatalf("10 arrivals in bursts of 8: %d bursts", len(got))
	}
}

func TestJobSeedsAreValid(t *testing.T) {
	for _, seed := range []int64{0, 1, -1, math.MinInt64, math.MaxInt64} {
		s := jobSpec(seed, 12345, true)
		if *s.GenSeed < 0 {
			t.Errorf("jobSpec(%d) gen_seed %d < 0", seed, *s.GenSeed)
		}
		if err := s.Validate(); err != nil {
			t.Errorf("jobSpec(%d): %v", seed, err)
		}
	}
}
