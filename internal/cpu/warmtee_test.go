package cpu

import (
	"fmt"
	"reflect"
	"testing"

	"mlpa/internal/bench"
	"mlpa/internal/bpred"
	"mlpa/internal/cache"
	"mlpa/internal/emu"
)

// warmStateDiff describes the first difference between the warm state
// of two contexts — cache contents and replacement state, branch unit
// and last fetch block — or returns "" when they agree. Statistics are
// excluded: Warm resets them, while a warm stream accumulates the
// windows it is fed.
func warmStateDiff(a, b *Sim) string {
	if a.lastFetchBlock != b.lastFetchBlock {
		return fmt.Sprintf("lastFetchBlock %d != %d", a.lastFetchBlock, b.lastFetchBlock)
	}
	ha, hb := a.hier.Clone(), b.hier.Clone()
	for _, h := range []*cache.Hierarchy{ha, hb} {
		h.IL1.ResetStats()
		h.DL1.ResetStats()
		h.L2.ResetStats()
		h.Mem.ResetStats()
	}
	for _, lv := range []struct {
		name string
		a, b *cache.Cache
	}{{"il1", ha.IL1, hb.IL1}, {"dl1", ha.DL1, hb.DL1}, {"l2", ha.L2, hb.L2}} {
		if !reflect.DeepEqual(lv.a, lv.b) {
			return lv.name + " state differs"
		}
	}
	ua, ub := a.bu.Clone(), b.bu.Clone()
	ua.ResetStats()
	ub.ResetStats()
	if !reflect.DeepEqual(ua, ub) {
		return "branch unit state differs"
	}
	return ""
}

// teeConfig is testConfig with small caches (so short prefixes evict,
// advancing Random's generator) and the predictor and replacement
// policy chosen by sel.
func teeConfig(sel uint8) Config {
	kinds := []bpred.Kind{bpred.KindCombined, bpred.KindBimodal, bpred.KindGShare, bpred.KindPAg,
		bpred.KindTaken, bpred.KindNotTaken, bpred.KindPerfect}
	policies := []cache.Replacement{cache.LRU, cache.FIFO, cache.Random}
	cfg := testConfig()
	cfg.Predictor = kinds[int(sel)%len(kinds)]
	pol := policies[int(sel)/len(kinds)%len(policies)]
	cfg.Caches.IL1 = cache.Config{Name: "il1", TotalBytes: 1 << 10, Assoc: 2, BlockBytes: 32, Latency: 1, Policy: pol}
	cfg.Caches.DL1 = cache.Config{Name: "dl1", TotalBytes: 2 << 10, Assoc: 4, BlockBytes: 32, Latency: 2, Policy: pol}
	cfg.Caches.L2 = cache.Config{Name: "ul2", TotalBytes: 16 << 10, Assoc: 4, BlockBytes: 32, Latency: 20, Policy: pol}
	return cfg
}

// FuzzWarmTee is the differential fuzz target for warm streams: for a
// random suite program, configuration, warm prefix k and detailed
// window (lead, n, tail), warming k instructions and then running the
// window on a Fork must leave the warmer in the state Warm over
// k+lead+n+tail instructions leaves a cold context, and the fork must
// measure exactly what a cold context warmed over k measures and end
// in that context's state.
func FuzzWarmTee(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint32(0), uint16(0), uint16(1), uint16(0))
	f.Add(uint8(1), uint8(9), uint32(5000), uint16(256), uint16(2000), uint16(128))
	f.Add(uint8(4), uint8(16), uint32(100000), uint16(512), uint16(4000), uint16(1000))
	f.Add(uint8(2), uint8(3), uint32(7001), uint16(0), uint16(300), uint16(0))
	suite := bench.Suite()
	f.Fuzz(func(t *testing.T, benchSel, cfgSel uint8, k uint32, lead, n, tail uint16) {
		p := suite[int(benchSel)%len(suite)].MustProgram(bench.SizeTiny)
		cfg := teeConfig(cfgSel)
		kk := uint64(k % (1 << 17))
		ll, nn, tt := uint64(lead%1024), uint64(n%4096)+1, uint64(tail%1024)

		// The warm stream: warm k, then feed it the fork's window.
		m := emu.New(p, 0)
		warmer := MustNew(cfg)
		if err := warmer.Warm(m, kk); err != nil {
			t.Fatal(err)
		}
		fork := warmer.Fork()
		got, err := fork.RunWindow(m, ll, nn, tt)
		if err != nil {
			t.Fatal(err)
		}

		// Reference warm state: one Warm over the whole span.
		ref := MustNew(cfg)
		if err := ref.Warm(emu.New(p, 0), kk+ll+nn+tt); err != nil {
			t.Fatal(err)
		}
		if d := warmStateDiff(warmer, ref); d != "" {
			t.Fatalf("warm stream diverged from Warm(%d): %s", kk+ll+nn+tt, d)
		}

		// Reference detailed result: a cold context warmed over k.
		m2 := emu.New(p, 0)
		cold := MustNew(cfg)
		if err := cold.Warm(m2, kk); err != nil {
			t.Fatal(err)
		}
		want, err := cold.RunWindow(m2, ll, nn, tt)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("fork measured %+v, cold warmed context %+v", got, want)
		}
		if d := warmStateDiff(fork, cold); d != "" {
			t.Fatalf("fork left in a different state than the cold warmed context: %s", d)
		}
		if m.Insts != m2.Insts || m.PC != m2.PC {
			t.Fatalf("machines diverged: at %d/pc %d vs %d/pc %d", m.Insts, m.PC, m2.Insts, m2.PC)
		}
	})
}
