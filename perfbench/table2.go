package main

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"time"

	"mlpa/internal/bench"
	"mlpa/internal/ckpt"
	"mlpa/internal/coasts"
	"mlpa/internal/config"
	"mlpa/internal/cpu"
	"mlpa/internal/experiments"
	"mlpa/internal/multilevel"
	"mlpa/internal/parallel"
	"mlpa/internal/phase"
	"mlpa/internal/pipeline"
	"mlpa/internal/prog"
	"mlpa/internal/sampling"
	"mlpa/internal/simpoint"
	"mlpa/internal/stats"
)

// table2Benchmarks: gzip is the warming-amplification case (unbounded
// warmup replays most of the program per point), gcc the selection-
// and detail-heavy case.
var table2Benchmarks = []string{"gzip", "gcc"}

// table2Size is the suite scale of the Table II job. At tiny a job
// takes about 8 s, so a run times several and reports their median,
// and the layers still split it much as at small: selection 47% of the
// job (34% at small), ExecutePlan 53% at both, nearly all of it
// functional warming.
const table2Size = bench.SizeTiny

// table2SetupReps is how many times table2 generates its programs;
// setup_s is the median. One generation takes well under a
// millisecond, so many rounds cost little and steady the median.
const table2SetupReps = 51

// table2Metrics are Table2Result's metric names, in its order.
var table2Metrics = []string{"CPI", "L1 Cache Hit", "L2 Cache Hit"}

// table2Exec is Study.Table2's execution policy under harness defaults:
// unbounded functional warming, a 512-instruction detailed lead-in and
// one worker, so job_s is the sum of the layers' times.
func table2Exec(cache *parallel.StateCache) pipeline.ExecOptions {
	return pipeline.ExecOptions{Warmup: math.MaxUint64, DetailLeadIn: 512, Workers: 1, Cache: cache}
}

// Selection configs as the harness derives them from its defaults.
func fineConfig() simpoint.Config {
	return simpoint.Config{IntervalLen: bench.FineInterval(table2Size), Kmax: 30, Seed: studySeed, SampleCap: 2000, BICFraction: 0.99}
}

func coarseConfig() coasts.Config { return coasts.Config{Kmax: 3, Seed: studySeed} }

// runTable2 times `mlpa table2` over gzip and gcc at table2Size under
// configs A and B: experiments.NewStudy + Study.Table2.
func runTable2(o runOpts, r *report) error {
	rng := rand.New(rand.NewSource(o.seed))
	names := shuffled(rng, table2Benchmarks)
	configs := shuffled(rng, []cpu.Config{config.BaseA(), config.SensitivityB()})

	progs, gen, err := programs(names, table2Size)
	if err != nil {
		return err
	}
	r.set("bench.program_s", gen.Seconds(), len(progs))
	setups, err := programSetups(names, table2Size, table2SetupReps)
	if err != nil {
		return err
	}
	r.set("setup_s", median(setups), len(setups))

	opts := experiments.Options{Size: table2Size, Seed: studySeed, Benchmarks: names, Workers: 1}
	estimates := len(names) * len(experiments.Methods()) * len(configs)
	var st *experiments.Study
	var res *experiments.Table2Result
	jobs := newJobLog()
	for jobs.more(o) {
		settle()
		sw := startWatch()
		st, err = experiments.NewStudy(opts)
		if err == nil {
			res, err = st.Table2(configs)
		}
		if err != nil {
			return fmt.Errorf("table2 job: %w", err)
		}
		jobs.add(sw.elapsed())
		r.attempted += estimates
	}
	jobs.report(r)
	job := median(jobs.walls)
	r.note("throughput_rps", "1/s", float64(estimates)/job, len(jobs.walls))
	// Sum in a fixed order so every seed reports the same bits.
	for i, m := range table2Metrics {
		mean := 0.0
		for _, method := range experiments.Methods() {
			for _, cfg := range []string{config.BaseA().Name, config.SensitivityB().Name} {
				mean += res.Cells[m][method][cfg].Avg
			}
		}
		mean *= 100 / float64(len(experiments.Methods())*len(configs))
		r.set([]string{"cpi_dev_pct", "l1_dev_pct", "l2_dev_pct"}[i], mean, estimates)
	}

	checkTable2Shape(r, res, names, configs)
	if o.tr == nil {
		return checkTable2Cell(r, rng, st, res, progs, configs)
	}
	return table2Traced(o, r, st, res, progs, names, configs, job)
}

// checkTable2Shape checks every Table II cell is present and sane.
func checkTable2Shape(r *report, res *experiments.Table2Result, names []string, configs []cpu.Config) {
	for _, m := range table2Metrics {
		for _, method := range experiments.Methods() {
			for _, cfg := range configs {
				c := res.Cells[m][method][cfg.Name]
				known := false
				for _, n := range names {
					known = known || c.WorstBench == n
				}
				r.check(known && c.Avg >= 0 && c.Avg <= c.Worst && !math.IsInf(c.Worst, 0),
					"table2 cell %s/%s/%s = %+v", m, method, cfg.Name, c)
			}
		}
	}
}

// checkTable2Cell recomputes one seed-chosen (method, config) cell's
// worst benchmark from scratch and checks it against Table II bit for
// bit, plus Σ weight·CPI against the estimate's CPI.
func checkTable2Cell(r *report, rng *rand.Rand, st *experiments.Study, res *experiments.Table2Result, progs []*prog.Program, configs []cpu.Config) error {
	method := experiments.Methods()[rng.Intn(len(experiments.Methods()))]
	cfg := configs[rng.Intn(len(configs))]
	worst := res.Cells["CPI"][method][cfg.Name].WorstBench
	for i, pl := range st.Plans {
		if pl.Spec.Name != worst {
			continue
		}
		plan, err := pl.ByMethod(method)
		if err != nil {
			return err
		}
		truth, _, err := pipeline.FullDetailed(progs[i], cfg)
		if err != nil {
			return err
		}
		opts := table2Exec(nil)
		if opts.Checkpoints, err = pipeline.BuildCheckpointSet(progs[i], plan, opts); err != nil {
			return err
		}
		est, err := pipeline.ExecutePlan(progs[i], plan, cfg, opts)
		if err != nil {
			return err
		}
		r.check(weightedCPI(est) == est.CPI, "%s/%s/%s: Σ weight·CPI %v != estimate CPI %v", worst, method, cfg.Name, weightedCPI(est), est.CPI)
		devs := [3]float64{}
		devs[0], devs[1], devs[2] = pipeline.Deviations(est, truth)
		for mi, m := range table2Metrics {
			c := res.Cells[m][method][cfg.Name]
			ok := devs[mi] <= c.Worst
			if c.WorstBench == worst {
				ok = devs[mi] == c.Worst
			}
			r.check(ok, "%s/%s/%s: recomputed %s deviation %v, Table II worst %v (%s)", worst, method, cfg.Name, m, devs[mi], c.Worst, c.WorstBench)
		}
		return nil
	}
	return fmt.Errorf("table2: worst benchmark %q is not in the study", worst)
}

// table2Traced recomposes the Table II job from the layers' public
// calls, in the order NewStudy and Study.Table2 make them, with a span
// around each call. It then checks that the composition selected the
// same plans and reproduces every Table II cell bit for bit, and
// measures the layer rate micros on the same programs.
func table2Traced(o runOpts, r *report, st *experiments.Study, res *experiments.Table2Result, progs []*prog.Program, names []string, configs []cpu.Config, untraced float64) error {
	tr := o.tr
	fine, coarse := fineConfig(), coarseConfig()
	methods := experiments.Methods()
	type devs struct{ v [3]float64 }
	results := make([]map[string][]devs, len(progs))
	var rows []countRow
	var sets []*ckpt.Set

	t0 := time.Now()
	root := tr.begin("job", "table2", 0)
	plans := make([]map[string]*sampling.Plan, len(progs))
	for i, p := range progs {
		g := names[i]
		sel := tr.begin("group.select", g, root)
		var trc *phase.Trace
		var sp, co, ml *sampling.Plan
		err := tr.do("simpoint.profile", g, sel, func() (err error) { trc, err = simpoint.Profile(p, fine); return err })
		if err == nil {
			err = tr.do("simpoint.cluster", g, sel, func() (err error) { sp, _, err = simpoint.SelectFromTrace(trc, fine); return err })
		}
		if err == nil {
			err = tr.do("coasts.select", g, sel, func() (err error) { co, _, _, err = coasts.Select(p, coarse); return err })
		}
		if err == nil {
			err = tr.do("multilevel.select", g, sel, func() (err error) {
				ml, _, err = multilevel.Select(p, multilevel.Config{Coarse: coarse, Fine: fine})
				return err
			})
		}
		tr.end(sel)
		if err != nil {
			return fmt.Errorf("table2 traced selection of %s: %w", g, err)
		}
		plans[i] = map[string]*sampling.Plan{experiments.MethodSimPoint: sp, experiments.MethodCoasts: co, experiments.MethodMultiLevel: ml}
	}
	for i, p := range progs {
		g := names[i]
		b := tr.begin("group.benchmark", g, root)
		opts := table2Exec(parallel.NewStateCache(p, 0, nil))
		bsets := make(map[string]*ckpt.Set, len(methods))
		for _, method := range methods {
			err := tr.do("ckpt.build", g, b, func() (err error) {
				bsets[method], err = pipeline.BuildCheckpointSet(p, plans[i][method], opts)
				return err
			})
			if err != nil {
				return err
			}
		}
		results[i] = make(map[string][]devs, len(configs))
		for ci, cfg := range configs {
			var truth cpu.Result
			if err := tr.do("pipeline.truth", g, b, func() (err error) { truth, _, err = pipeline.FullDetailed(p, cfg); return err }); err != nil {
				return err
			}
			ds := make([]devs, len(methods))
			for mi, method := range methods {
				eo := opts
				eo.Checkpoints = bsets[method]
				est, err := timedExec(o, r, g, b, p, plans[i][method], cfg, eo)
				r.op(err)
				if err != nil {
					return err
				}
				r.check(weightedCPI(est) == est.CPI, "%s/%s/%s: Σ weight·CPI %v != estimate CPI %v", g, method, cfg.Name, weightedCPI(est), est.CPI)
				ds[mi].v[0], ds[mi].v[1], ds[mi].v[2] = pipeline.Deviations(est, truth)
				if ci == 0 {
					chunks, err := pipeline.PlanChunks(plans[i][method], eo, 2)
					if err != nil {
						return err
					}
					rows = append(rows, countsFor(est, bsets[method], chunks))
				}
			}
			results[i][cfg.Name] = ds
		}
		for _, method := range methods {
			sets = append(sets, bsets[method])
		}
		tr.end(b)
	}
	tr.end(root)
	traced := time.Since(t0).Seconds()

	for i, pl := range st.Plans {
		for _, method := range methods {
			want, _ := pl.ByMethod(method)
			r.check(reflect.DeepEqual(want, plans[i][method]), "%s/%s: traced selection differs from NewStudy's plan", names[i], method)
		}
	}
	// Aggregate in Study.Table2's order: configs, then benchmarks.
	for _, cfg := range configs {
		for mi, method := range methods {
			for k, m := range table2Metrics {
				var agg stats.Agg
				for i := range progs {
					agg.Add(names[i], results[i][cfg.Name][mi].v[k])
				}
				worst, wb := agg.Worst()
				got := experiments.DevCell{Avg: agg.Avg(), Worst: worst, WorstBench: wb}
				r.check(got == res.Cells[m][method][cfg.Name], "%s/%s/%s: composed %+v, Table II %+v", m, method, cfg.Name, got, res.Cells[m][method][cfg.Name])
			}
		}
	}

	reportSelfTimes(r, tr.snapshot(), traced, untraced)
	reportCounts(r, rows)
	return layerMicros(r, progs, table2Size, sets)
}
