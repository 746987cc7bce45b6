package pipeline

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"mlpa/internal/bench"
	"mlpa/internal/ckpt"
	"mlpa/internal/coasts"
	"mlpa/internal/config"
	"mlpa/internal/cpu"
	"mlpa/internal/emu"
	"mlpa/internal/obs"
	"mlpa/internal/parallel"
	"mlpa/internal/prog"
	"mlpa/internal/sampling"
	"mlpa/internal/simpoint"
)

// replayPlan is the per-point replay oracle: every point gets a machine
// fast-forwarded from program start to its warm start and a cold
// cpu.Sim that warms over the point's whole warm window, with no state
// shared between points. ExecutePlan's warm streams must reproduce it
// bit for bit.
func replayPlan(t *testing.T, p *prog.Program, plan *sampling.Plan, cfg cpu.Config, opts ExecOptions) *Estimate {
	t.Helper()
	tasks, err := planTasks(plan, opts)
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]PointRecord, len(plan.Points))
	for pi, task := range tasks {
		pt := plan.Points[pi]
		m := emu.New(p, 0)
		if err := fastForward(context.Background(), m, task.warmStart, nil); err != nil {
			t.Fatal(err)
		}
		sim := cpu.MustNew(cfg)
		if task.warm > 0 {
			if err := sim.Warm(m, task.warm); err != nil {
				t.Fatal(err)
			}
		}
		livein, err := boundaryLiveIn(m)
		if err != nil {
			t.Fatal(err)
		}
		if opts.Warmup > 0 && task.warm < pt.Len() {
			if err := sim.WarmCode(m.Clone(), pt.Len()); err != nil {
				t.Fatal(err)
			}
		}
		res, err := sim.RunWindow(m, task.lead, pt.Len(), task.tail)
		if err != nil {
			t.Fatal(err)
		}
		recs[pi] = PointRecord{
			Index: pi, Start: pt.Start, End: pt.End, Weight: pt.Weight,
			Insts: res.Insts, Cycles: res.Cycles, CPI: res.CPI(),
			L1Hit: res.L1.HitRate(), L2Hit: res.L2.HitRate(),
			L1Accesses: res.L1.Accesses, L1Hits: res.L1.Hits(),
			L2Accesses: res.L2.Accesses, L2Hits: res.L2.Hits(),
			FastForward: task.skip, Warmed: task.warm, Lead: task.lead, Tail: task.tail,
			LiveIn: livein,
		}
	}
	return mergeEstimate(plan, cfg.Name, recs, nil)
}

// coastsReplay names the benchmarks whose COASTS plan the replay test
// also runs. COASTS points are coarse, so their detailed windows cost
// several SimPoint plans each; these two together cover every stream
// shape: points sharing a stream under 64K warmup, points
// shorter than their warm history (the WarmCode dry run), and a point
// starting exactly where its predecessor's run-ahead ended.
var coastsReplay = map[string]bool{"parser": true, "vortex": true}

// TestWarmStreamsMatchPerPointReplay is the acceptance harness for
// shared warm streams: over the whole suite at tiny size (a SimPoint
// plan per benchmark, plus COASTS plans for coastsReplay),
// configurations A and B, unbounded/64K/zero warmup, from scratch and
// checkpoint-backed, ExecutePlan at 1, 2 and 4 workers must give
// estimates and point records reflect.DeepEqual to per-point replay
// (wall-clock fields excepted). So must, under configuration A, a
// forced split into two chunks, where the second chunk rebuilds its
// stream from the warm start and then continues it (tiny plans are too
// small for the cost model to split on its own). The worker count
// reaches execution only through the partition, so a worker count
// whose partition was already run is not run again. CI runs the test
// under -race.
func TestWarmStreamsMatchPerPointReplay(t *testing.T) {
	configs := []cpu.Config{config.BaseA(), config.SensitivityB()}
	warmups := []uint64{math.MaxUint64, 1 << 16, 0}
	for _, spec := range bench.Suite() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			p := spec.MustProgram(bench.SizeTiny)
			sp, _, _, err := simpoint.Select(p, simpoint.Config{
				IntervalLen: bench.FineInterval(bench.SizeTiny), Kmax: 8, Seed: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			plans := []*sampling.Plan{sp}
			if coastsReplay[spec.Name] {
				co, _, _, err := coasts.Select(p, coasts.Config{Seed: 1})
				if err != nil {
					t.Fatal(err)
				}
				plans = append(plans, co)
			}
			for _, plan := range plans {
				n := len(plan.Points)
				split := []parallel.Chunk{{Start: 0, End: n / 2}, {Start: n / 2, End: n}}
				for _, warmup := range warmups {
					opts := ExecOptions{Warmup: warmup, DetailLeadIn: 512, RunAhead: 256}
					tasks, err := planTasks(plan, opts)
					if err != nil {
						t.Fatal(err)
					}
					set, err := BuildCheckpointSet(p, plan, opts)
					if err != nil {
						t.Fatal(err)
					}
					for ci, cfg := range configs {
						want := stripWall(replayPlan(t, p, plan, cfg, opts))
						for _, s := range []*ckpt.Set{nil, set} {
							o := opts
							o.Checkpoints = s
							check := func(name string, chunks []parallel.Chunk) {
								est, err := executePlan(p, plan, cfg, o, chunks)
								if err != nil {
									t.Fatal(err)
								}
								if got := stripWall(est); !reflect.DeepEqual(got, want) {
									t.Errorf("%s warmup %d config %s %s ckpt %v: differs from per-point replay:\n got %s\nwant %s",
										plan.Method, warmup, cfg.Name, name, s != nil, dumpEstimate(got), dumpEstimate(want))
								}
							}
							var seen [][]parallel.Chunk
							for _, workers := range []int{1, 2, 4} {
								chunks := planPartition(plan, tasks, workers, s != nil)
								if slices.ContainsFunc(seen, func(c []parallel.Chunk) bool { return slices.Equal(c, chunks) }) {
									continue
								}
								seen = append(seen, chunks)
								o.Workers = workers
								check(fmt.Sprintf("workers %d", workers), nil)
							}
							if ci == 0 && n > 1 {
								check("two chunks", split)
							}
						}
					}
				}
			}
		})
	}
}

// TestExecutedWorkCounters pins what the executed-work counters count.
// Under unbounded warmup one chunk is one warm stream from instruction
// 0: it warms every instruction up to the last point's boundary once
// (the last window runs on the warmer itself, so it is not fed back),
// fast-forwards nothing, and a checkpoint set is restored once. The
// Table III model is counted apart from executed work.
func TestExecutedWorkCounters(t *testing.T) {
	p := bench.Suite()[0].MustProgram(bench.SizeTiny)
	plan, _, _, err := simpoint.Select(p, simpoint.Config{
		IntervalLen: bench.FineInterval(bench.SizeTiny), Kmax: 8, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	opts := ExecOptions{Warmup: math.MaxUint64, DetailLeadIn: 512, RunAhead: 256}
	tasks, err := planTasks(plan, opts)
	if err != nil {
		t.Fatal(err)
	}
	set, err := BuildCheckpointSet(p, plan, opts)
	if err != nil {
		t.Fatal(err)
	}
	n := len(plan.Points)
	last := plan.Points[n-1].Start - tasks[n-1].lead
	for _, s := range []*ckpt.Set{nil, set} {
		o := opts
		o.Obs, o.Checkpoints = obs.New(nil), s
		est, err := executePlan(p, plan, config.BaseA(), o, []parallel.Chunk{{Start: 0, End: n}})
		if err != nil {
			t.Fatal(err)
		}
		reg := o.Obs.Metrics()
		restores := int64(0)
		if s != nil {
			restores = 1
		}
		for name, want := range map[string]int64{
			"pipeline.plan_functional_insts": int64(est.FunctionalInsts),
			"pipeline.warmed_insts":          int64(last),
			"pipeline.ff_insts":              0,
			"pipeline.ckpt_restores":         restores,
		} {
			if got := reg.Counter(name).Value(); got != want {
				t.Errorf("ckpt %v: %s = %d, want %d", s != nil, name, got, want)
			}
		}
		if last > plan.TotalInsts {
			t.Errorf("stream warmed %d instructions, past the program's %d", last, plan.TotalInsts)
		}
	}
}
