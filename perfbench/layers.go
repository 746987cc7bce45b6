package main

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"mlpa/internal/bench"
	"mlpa/internal/ckpt"
	"mlpa/internal/config"
	"mlpa/internal/cpu"
	"mlpa/internal/parallel"
	"mlpa/internal/pipeline"
	"mlpa/internal/prog"
	"mlpa/internal/sampling"
)

// studySeed is the experiment-harness seed table2 and ckpt-sweep
// select points with: the harness default, the seed `mlpa table2`
// runs with. It is fixed rather than taken from --seed because the
// study seed moves which points k-means picks, and with them a Table
// II job's work by about ±10% and its CPI deviation by about ±30%
// across seeds 1–6 — a spread wider than any bound the benchmark could
// hold. --seed instead orders the work and picks what the output
// checks recompute; results do not depend on the order.
const studySeed = 1

// sweepConfigs is ckpt-sweep's 4-point sensitivity sweep: Table I's A
// and B plus two variants of A that move only the memory system, as
// `mlpa bench`'s checkpoint micro defines them.
func sweepConfigs() []cpu.Config {
	slow := config.BaseA()
	slow.Name = "A-slowmem"
	slow.Caches.MemFirst, slow.Caches.MemNext = 300, 20
	small := config.BaseA()
	small.Name = "A-smallL2"
	small.Caches.L2.TotalBytes = 256 << 10
	small.Caches.L2.Latency = 12
	return []cpu.Config{config.BaseA(), config.SensitivityB(), slow, small}
}

// shuffled returns a seeded permutation of xs.
func shuffled[T any](rng *rand.Rand, xs []T) []T {
	out := append([]T(nil), xs...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// programs generates the named suite programs at size and returns
// them with the generation wall time.
func programs(names []string, size bench.Size) ([]*prog.Program, time.Duration, error) {
	t0 := time.Now()
	out := make([]*prog.Program, len(names))
	for i, n := range names {
		s, err := bench.ByName(n)
		if err != nil {
			return nil, 0, err
		}
		if out[i], err = s.Program(size); err != nil {
			return nil, 0, err
		}
	}
	return out, time.Since(t0), nil
}

// setupPause is the idle time before each timed round of a
// sub-millisecond set-up, so every round starts from an idle process
// as a fresh run's set-up does. Back to back, each round rides on
// caches and threads still warm from the last, and run medians drifted
// apart by up to a factor of two.
const setupPause = 20 * time.Millisecond

// programSetups returns the CPU seconds of n fresh generations of the
// named programs.
// bench.Spec.Program memoises programs by spec name, so a plain repeat
// would time a cache lookup; each round generates copies of the specs
// under names of their own instead. The name only labels the program,
// so every round does the work of the first.
func programSetups(names []string, size bench.Size, n int) ([]float64, error) {
	var out []float64
	for i := 0; i < n; i++ {
		time.Sleep(setupPause)
		sw := startWatch()
		for _, name := range names {
			s, err := bench.ByName(name)
			if err != nil {
				return nil, err
			}
			c := *s
			c.Name = fmt.Sprintf("%s-setup%d", name, i)
			if _, err := c.Program(size); err != nil {
				return nil, err
			}
		}
		_, cpu := sw.elapsed()
		out = append(out, cpu)
	}
	return out, nil
}

// truthsFor runs FullDetailed for every program under cfg, two at a
// time (the host's CPUs), and returns the results in program order.
func truthsFor(progs []*prog.Program, cfg cpu.Config) ([]cpu.Result, error) {
	out := make([]cpu.Result, len(progs))
	err := parallel.ForEach(context.Background(), 2, len(progs), func(_ context.Context, i int) error {
		var err error
		out[i], _, err = pipeline.FullDetailed(progs[i], cfg)
		return err
	})
	return out, err
}

// workCounts sums an estimate's exact per-point work: instructions
// functionally warmed, plainly fast-forwarded (the scheduler's planned
// skip) and simulated in detail (lead-in + measured + run-ahead). They
// miss the per-point WarmCode dry run, which only an in-program ledger
// can count.
func workCounts(est *pipeline.Estimate) (warmed, ff, detailed uint64) {
	for _, rec := range est.PointRecords {
		warmed += rec.Warmed
		ff += rec.FastForward
		detailed += rec.Lead + rec.Insts + rec.Tail
	}
	return warmed, ff, detailed
}

// countsFor builds the exact-count row of one executed plan.
func countsFor(est *pipeline.Estimate, set *ckpt.Set, chunks int) countRow {
	warmed, ff, detailed := workCounts(est)
	row := countRow{
		Benchmark:     est.Benchmark,
		Method:        est.Method,
		TotalInsts:    est.TotalInsts,
		Points:        est.Points,
		WarmedInsts:   warmed,
		FFInsts:       ff,
		DetailedInsts: detailed,
		WorkAmp:       float64(warmed+ff+detailed) / float64(est.TotalInsts),
		PlanChunks:    chunks,
	}
	if set != nil {
		row.StatesNonzero = statesNonzero(set)
		row.CkptSetBytes = set.ApproxBytes()
	}
	return row
}

func statesNonzero(set *ckpt.Set) int {
	n := 0
	for _, st := range set.States {
		if st.Insts > 0 {
			n++
		}
	}
	return n
}

// reportCounts turns the exact-count rows into per-layer metrics.
func reportCounts(r *report, rows []countRow) {
	var amps []float64
	for _, c := range rows {
		r.add("pipeline.warmed_insts", float64(c.WarmedInsts))
		r.add("pipeline.ff_insts", float64(c.FFInsts))
		r.add("pipeline.detailed_insts", float64(c.DetailedInsts))
		r.add("ckpt.states_nonzero", float64(c.StatesNonzero))
		r.add("ckpt.set_bytes", float64(c.CkptSetBytes))
		r.add("parallel.plan_chunks", float64(c.PlanChunks))
		amps = append(amps, c.WorkAmp)
	}
	mean, max := 0.0, 0.0
	for _, a := range amps {
		mean += a / float64(len(amps))
		if a > max {
			max = a
		}
	}
	r.set("pipeline.work_amp.mean", mean, len(amps))
	r.set("pipeline.work_amp.max", max, len(amps))
	r.counts = append(r.counts, rows...)
}

// weightedCPI recomputes Σ weight·CPI over the point records in the
// order ExecutePlan sums them, so it must equal Estimate.CPI exactly.
func weightedCPI(est *pipeline.Estimate) float64 {
	cpi := 0.0
	for _, rec := range est.PointRecords {
		cpi += rec.Weight * rec.CPI
	}
	return cpi
}

// sameEstimate reports whether two estimates agree bit for bit on
// every simulated quantity (wall-clock fields excluded).
func sameEstimate(a, b *pipeline.Estimate) bool {
	if a.CPI != b.CPI || a.L1Hit != b.L1Hit || a.L2Hit != b.L2Hit || len(a.PointRecords) != len(b.PointRecords) {
		return false
	}
	for i := range a.PointRecords {
		x, y := a.PointRecords[i], b.PointRecords[i]
		x.WallFunctional, x.WallDetailed = 0, 0
		y.WallFunctional, y.WallDetailed = 0, 0
		if x != y {
			return false
		}
	}
	return true
}

// timedExec runs ExecutePlan inside a span and credits its functional
// and detailed wall split to the per-layer metrics.
func timedExec(o runOpts, r *report, group string, parent int, p *prog.Program, plan *sampling.Plan, cfg cpu.Config, opts pipeline.ExecOptions) (*pipeline.Estimate, error) {
	var est *pipeline.Estimate
	err := o.tr.do("pipeline.exec."+plan.Method, group, parent, func() error {
		var err error
		est, err = pipeline.ExecutePlan(p, plan, cfg, opts)
		return err
	})
	if err == nil && o.tr != nil {
		r.add("pipeline.exec_functional_s", est.WallFunctional.Seconds())
		r.add("pipeline.exec_detailed_s", est.WallDetailed.Seconds())
	}
	return est, err
}

// layerSpans are the span names whose self time is a per-layer metric
// (metric = name + "_s").
var layerSpans = []string{
	"simpoint.profile", "simpoint.cluster", "coasts.select",
	"multilevel.select", "pipeline.truth", "ckpt.build",
}

var execMethods = []string{"coasts", "simpoint", "multilevel", "smarts"}

// reportSelfTimes turns one traced job's spans into per-layer self
// times, the unattributed remainder (job time inside no layer span;
// "job" and "group.*" spans only group work) and the tracing overhead.
func reportSelfTimes(r *report, spans []span, tracedJob, untracedJob float64) {
	self := selfTimes(spans)
	for _, name := range layerSpans {
		r.set(name+"_s", self[name], 1)
	}
	exec := 0.0
	for _, m := range execMethods {
		r.set("pipeline.exec_s."+m, self["pipeline.exec."+m], 1)
		exec += self["pipeline.exec."+m]
	}
	r.set("pipeline.exec_s", exec, 1)
	var layer [][2]float64
	lo, hi := 0.0, 0.0
	for _, s := range spans {
		switch {
		case s.Name == "job":
			lo, hi = s.StartUS, s.EndUS
		case !strings.HasPrefix(s.Name, "group."):
			layer = append(layer, [2]float64{s.StartUS, s.EndUS})
		}
	}
	r.set("trace.job_s", tracedJob, 1)
	r.set("trace.untraced_job_s", untracedJob, 1)
	r.set("trace.overhead_s", tracedJob-untracedJob, 1)
	r.set("trace.unattributed_s", (hi-lo-unionWithin(layer, lo, hi))/1e6, 1)
}
