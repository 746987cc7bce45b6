package main

import (
	"reflect"
	"testing"
)

func TestSelfTimesSubtractChildUnion(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "job", StartUS: 0, EndUS: 10e6},
		{ID: 2, Parent: 1, Name: "a", StartUS: 1e6, EndUS: 4e6},
		// Overlaps a: counted once in the parent's covered time.
		{ID: 3, Parent: 1, Name: "b", StartUS: 3e6, EndUS: 6e6},
		{ID: 4, Parent: 3, Name: "c", StartUS: 5e6, EndUS: 9e6}, // clipped to b
	}
	got := selfTimes(spans)
	want := map[string]float64{"job": 5, "a": 3, "b": 2, "c": 4}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {0.9, 4.6}, {1, 5}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v", got)
	}
}

// TestServeSequence: the sequence is a function of the seed, every
// seed sends the same distinct requests (each benchmark estimated under
// both configs, 4 estimates to 1 plan), and serveRepeats requests
// repeat an earlier one.
func TestServeSequence(t *testing.T) {
	a, b, c := serveSequence(7), serveSequence(7), serveSequence(8)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different sequences")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same sequence")
	}
	distinct := func(seq []serveReq) map[string]bool {
		seen := make(map[string]bool)
		for _, q := range seq {
			seen[q.key()] = true
		}
		return seen
	}
	if !reflect.DeepEqual(distinct(a), distinct(c)) {
		t.Error("different seeds sent different distinct requests")
	}
	seen := make(map[string]bool)
	estimated := make(map[string]bool)
	repeats, ests, plans := 0, 0, 0
	for _, q := range a {
		switch {
		case seen[q.key()]:
			repeats++
		case q.endpoint == "plan":
			plans++
		default:
			ests++
			estimated[q.bench] = true
		}
		seen[q.key()] = true
	}
	if repeats != serveRepeats || ests != 2*len(estimated) || ests != 4*plans {
		t.Errorf("%d repeats, %d estimates over %d benchmarks, %d plans", repeats, ests, len(estimated), plans)
	}
}
