package bpred

import (
	"math/rand"
	"reflect"
	"testing"
)

// branchStream drives n pseudo-random branches — conditional, direct
// jumps, calls and returns over a few hundred PCs, enough to alias in
// the tables and wrap the RAS — and returns each prediction's outcome.
func branchStream(u *Unit, seed int64, n int) []bool {
	rng := rand.New(rand.NewSource(seed))
	out := make([]bool, n)
	for i := range out {
		pc := rng.Int63n(600)
		target := rng.Int63n(600)
		switch rng.Intn(8) {
		case 0:
			out[i] = u.PredictCall(pc, target, pc+1)
		case 1:
			out[i] = u.PredictReturn(pc, target)
		case 2:
			out[i] = u.PredictJump(pc, target)
		default:
			// Biased per-PC directions, so predictors learn something.
			taken := (rng.Intn(4) != 0) == (pc%3 != 0)
			out[i] = u.PredictCond(pc, taken, target)
		}
	}
	return out
}

// TestUnitClone: for every predictor kind, a clone taken mid-run
// carries every stateful field — direction tables, global and local
// histories, chooser, BTB, RAS and statistics — and shares none of it.
// The reference is an independent unit replaying the same prefix: the
// clone must equal it when taken and still equal it after the source
// runs on (so it aliases nothing the source mutates), and the same
// continuation must then give identical predictions, statistics and
// final state on source and copy.
func TestUnitClone(t *testing.T) {
	kinds := []Kind{KindCombined, KindBimodal, KindGShare, KindPAg, KindTaken, KindNotTaken, KindPerfect}
	for _, kind := range kinds {
		t.Run(string(kind), func(t *testing.T) {
			prefixed := func() *Unit {
				u, err := NewUnit(kind, 256)
				if err != nil {
					t.Fatal(err)
				}
				branchStream(u, 1, 4000)
				return u
			}
			src, ref := prefixed(), prefixed()
			cp := src.Clone()
			if !reflect.DeepEqual(cp, ref) {
				t.Fatal("clone differs from its source's state")
			}
			want := branchStream(src, 2, 4000)
			if !reflect.DeepEqual(cp, ref) {
				t.Fatal("running the source changed the clone: state is shared")
			}
			got := branchStream(cp, 2, 4000)
			if !reflect.DeepEqual(got, want) {
				t.Error("clone predictions differ from source")
			}
			if cp.Stats() != src.Stats() {
				t.Errorf("clone stats %+v, source %+v", cp.Stats(), src.Stats())
			}
			if !reflect.DeepEqual(cp, src) {
				t.Error("clone and source diverged after the same stream")
			}
		})
	}
}
