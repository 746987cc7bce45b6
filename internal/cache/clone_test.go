package cache

import (
	"math/rand"
	"reflect"
	"testing"
)

// cloneTestHierarchy is a deliberately small hierarchy, so a short
// access stream fills every level and forces evictions (advancing
// Random's generator and the LRU/FIFO stamps).
func cloneTestHierarchy(t *testing.T, policy Replacement) *Hierarchy {
	t.Helper()
	h, err := NewHierarchy(HierarchyConfig{
		IL1:      Config{Name: "il1", TotalBytes: 1 << 10, Assoc: 2, BlockBytes: 32, Latency: 1, Policy: policy},
		DL1:      Config{Name: "dl1", TotalBytes: 1 << 10, Assoc: 4, BlockBytes: 32, Latency: 2, Policy: policy},
		L2:       Config{Name: "ul2", TotalBytes: 4 << 10, Assoc: 4, BlockBytes: 32, Latency: 20, Policy: policy},
		MemFirst: 150,
		MemNext:  10,
	})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// accessStream drives n pseudo-random instruction and data accesses
// (reads and writes over a footprint several times the L2) and returns
// the latency of each.
func accessStream(h *Hierarchy, seed int64, n int) []int {
	rng := rand.New(rand.NewSource(seed))
	lats := make([]int, n)
	for i := range lats {
		addr := rng.Int63n(32 << 10)
		if rng.Intn(3) == 0 {
			lats[i] = h.IL1.Access(addr, false)
		} else {
			lats[i] = h.DL1.Access(addr, rng.Intn(2) == 0)
		}
	}
	return lats
}

func hierarchyStats(h *Hierarchy) [4]Stats {
	return [4]Stats{h.IL1.Stats(), h.DL1.Stats(), h.L2.Stats(), h.Mem.Stats()}
}

// TestHierarchyClone: a clone taken mid-run carries every stateful
// field — contents, dirty bits, replacement stamps and clock, Random's
// generator state, statistics — and shares none of it. The reference
// is an independent hierarchy replaying the same prefix: the clone
// must equal it when taken and still equal it after the source runs on
// (so it aliases nothing the source mutates), and the same
// continuation must then give identical latencies, statistics and
// final state on source and copy.
func TestHierarchyClone(t *testing.T) {
	for _, policy := range []Replacement{LRU, FIFO, Random} {
		t.Run(string(policy), func(t *testing.T) {
			prefixed := func() *Hierarchy {
				h := cloneTestHierarchy(t, policy)
				accessStream(h, 1, 5000)
				return h
			}
			src, ref := prefixed(), prefixed()
			if policy == Random && src.L2.rngState == 0x9e3779b97f4a7c15 {
				t.Fatal("prefix never evicted at random; the test would not cover rngState")
			}
			if src.L2.clock == 0 || src.DL1.Stats().Writebacks == 0 {
				t.Fatal("prefix left replacement clock or writebacks untouched")
			}
			cp := src.Clone()
			if !reflect.DeepEqual(cp, ref) {
				t.Fatal("clone differs from its source's state")
			}
			if cp.IL1.next != cp.L2 || cp.DL1.next != cp.L2 || cp.L2.next != cp.Mem {
				t.Fatal("clone is not wired IL1/DL1 -> L2 -> Mem")
			}
			want := accessStream(src, 2, 5000)
			if !reflect.DeepEqual(cp, ref) {
				t.Fatal("running the source changed the clone: state is shared")
			}
			got := accessStream(cp, 2, 5000)
			if !reflect.DeepEqual(got, want) {
				t.Error("clone latencies differ from source")
			}
			if hierarchyStats(cp) != hierarchyStats(src) {
				t.Errorf("clone stats %+v, source %+v", hierarchyStats(cp), hierarchyStats(src))
			}
			if !reflect.DeepEqual(cp, src) {
				t.Error("clone and source diverged after the same stream")
			}
		})
	}
}
