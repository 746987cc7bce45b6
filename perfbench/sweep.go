package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"mlpa/internal/bench"
	"mlpa/internal/ckpt"
	"mlpa/internal/config"
	"mlpa/internal/cpu"
	"mlpa/internal/experiments"
	"mlpa/internal/pipeline"
	"mlpa/internal/prog"
	"mlpa/internal/sampling"
)

// sweepBenchmarks mixes integer and FP programs whose plans put points
// deep into the program, so checkpoint sets hold states past
// instruction 0.
var sweepBenchmarks = []string{"gzip", "gcc", "lucas", "mcf", "swim", "bzip2"}

const (
	// sweepSize is the suite scale of the sweep. A checkpoint-backed
	// point costs its 64K-instruction warming and its detailed window
	// at every scale, so a job at tiny does most of the work of one at
	// small, while set-up (selection) and the output checks (truth and
	// scratch runs) cost about half and a fifth as much.
	sweepSize = bench.SizeTiny
	// setupReps is how many times ckpt-sweep selects its plans; setup_s
	// is the median.
	setupReps = 3
	// sweepWorkers is the fan-out of selection and plan execution (the
	// host's 2 CPUs).
	sweepWorkers = 2
)

// sweepExec is the sweep's execution policy: the daemon's bounded 64K
// functional warming and 512-instruction lead-in, so warm starts sit
// inside the program and checkpoints replace real fast-forward.
func sweepExec() pipeline.ExecOptions {
	return pipeline.ExecOptions{Warmup: 1 << 16, DetailLeadIn: 512, Workers: sweepWorkers}
}

// sweepItem is one (benchmark, method) plan of the sweep.
type sweepItem struct {
	prog *prog.Program
	plan *sampling.Plan
}

// runCkptSweep times the config-sensitivity sweep checkpoint sets
// exist for: per plan, BuildCheckpointSet, then a checkpoint-backed
// ExecutePlan under each of four configs.
func runCkptSweep(o runOpts, r *report) error {
	rng := rand.New(rand.NewSource(o.seed))
	var st *experiments.Study
	var setups []float64
	for i := 0; i < setupReps; i++ {
		settle()
		sw := startWatch()
		progs, gen, err := programs(sweepBenchmarks, sweepSize)
		if err != nil {
			return err
		}
		if i == 0 {
			r.set("bench.program_s", gen.Seconds(), len(progs))
		}
		st, err = experiments.NewStudy(experiments.Options{Size: sweepSize, Seed: studySeed, Benchmarks: sweepBenchmarks, Workers: sweepWorkers})
		if err != nil {
			return fmt.Errorf("ckpt-sweep set-up: %w", err)
		}
		_, cpu := sw.elapsed()
		setups = append(setups, cpu)
	}
	r.set("setup_s", median(setups), len(setups))

	var items []sweepItem
	for _, pl := range st.Plans {
		p, err := pl.Spec.Program(sweepSize)
		if err != nil {
			return err
		}
		for _, method := range experiments.Methods() {
			plan, err := pl.ByMethod(method)
			if err != nil {
				return err
			}
			items = append(items, sweepItem{p, plan})
		}
	}
	// The seed orders the plans and the configs; results do not
	// depend on the order.
	items = shuffled(rng, items)
	configs := shuffled(rng, sweepConfigs())

	var lats []float64
	var ests [][]*pipeline.Estimate
	var sets []*ckpt.Set
	jobs := newJobLog()
	for jobs.more(o) {
		settle()
		sw := startWatch()
		var err error
		ests, sets, err = sweepJob(runOpts{seed: o.seed}, r, items, configs, &lats)
		if err != nil {
			return err
		}
		jobs.add(sw.elapsed())
	}
	jobs.report(r)
	untraced := median(jobs.walls)
	r.note("throughput_rps", "1/s", float64(len(items)*len(configs))/untraced, len(jobs.walls))
	r.note("latency_ms.p50", "ms", quantile(lats, 0.5), len(lats))
	r.note("latency_ms.p90", "ms", quantile(lats, 0.9), len(lats))

	if err := sweepAccuracy(r, items, configs, ests); err != nil {
		return err
	}
	if err := checkSweep(r, rng, items, configs, ests); err != nil {
		return err
	}
	if o.tr == nil {
		return nil
	}

	// Traced job: the same sweep with a span around every layer call.
	t0 := time.Now()
	var discard []float64
	ests, sets, err := sweepJob(o, r, items, configs, &discard)
	if err != nil {
		return err
	}
	traced := time.Since(t0).Seconds()
	var rows []countRow
	for k, it := range items {
		opts := sweepExec()
		opts.Checkpoints = sets[k]
		chunks, err := pipeline.PlanChunks(it.plan, opts, sweepWorkers)
		if err != nil {
			return err
		}
		rows = append(rows, countsFor(ests[k][0], sets[k], chunks))
	}
	reportSelfTimes(r, o.tr.snapshot(), traced, untraced)
	reportCounts(r, rows)
	var progs []*prog.Program
	for _, pl := range st.Plans {
		p, _ := pl.Spec.Program(sweepSize)
		progs = append(progs, p)
	}
	return layerMicros(r, progs, sweepSize, sets)
}

// sweepJob runs the sweep once. It returns the estimates per item (in
// config order) and the checkpoint set per item, and appends each
// ExecutePlan's latency in ms to lats.
func sweepJob(o runOpts, r *report, items []sweepItem, configs []cpu.Config, lats *[]float64) ([][]*pipeline.Estimate, []*ckpt.Set, error) {
	root := o.tr.begin("job", "ckpt-sweep", 0)
	defer o.tr.end(root)
	ests := make([][]*pipeline.Estimate, len(items))
	sets := make([]*ckpt.Set, len(items))
	for k, it := range items {
		g := it.plan.Benchmark + "/" + it.plan.Method
		opts := sweepExec()
		err := o.tr.do("ckpt.build", g, root, func() (err error) {
			sets[k], err = pipeline.BuildCheckpointSet(it.prog, it.plan, opts)
			return err
		})
		if err != nil {
			return nil, nil, fmt.Errorf("ckpt-sweep %s: %w", g, err)
		}
		opts.Checkpoints = sets[k]
		for _, cfg := range configs {
			t0 := time.Now()
			est, err := timedExec(o, r, g, root, it.prog, it.plan, cfg, opts)
			*lats = append(*lats, float64(time.Since(t0).Nanoseconds())/1e6)
			r.op(err)
			if err != nil {
				return nil, nil, fmt.Errorf("ckpt-sweep %s under %s: %w", g, cfg.Name, err)
			}
			ests[k] = append(ests[k], est)
		}
	}
	return ests, sets, nil
}

// sweepAccuracy reports the config-A estimates' deviation from the
// config-A full detailed run of each program. Truth is computed after
// the timed region, two programs at a time; one config keeps it to a
// few seconds.
func sweepAccuracy(r *report, items []sweepItem, configs []cpu.Config, ests [][]*pipeline.Estimate) error {
	ci := -1
	for i, cfg := range configs {
		if cfg.Name == config.BaseA().Name {
			ci = i
		}
	}
	var progs []*prog.Program
	seen := make(map[*prog.Program]bool)
	for _, it := range items {
		if !seen[it.prog] {
			seen[it.prog] = true
			progs = append(progs, it.prog)
		}
	}
	res, err := truthsFor(progs, configs[ci])
	if err != nil {
		return err
	}
	truths := make(map[*prog.Program]cpu.Result, len(progs))
	for i, p := range progs {
		truths[p] = res[i]
	}
	// Sum in plan order, not the seeded sweep order, so every seed
	// reports the same bits.
	order := make([]int, len(items))
	for k := range order {
		order[k] = k
	}
	sort.Slice(order, func(a, b int) bool {
		x, y := items[order[a]].plan, items[order[b]].plan
		return x.Benchmark < y.Benchmark || (x.Benchmark == y.Benchmark && x.Method < y.Method)
	})
	var dev [3]float64
	for _, k := range order {
		it := items[k]
		c, l1, l2 := pipeline.Deviations(ests[k][ci], truths[it.prog])
		dev[0] += 100 * c / float64(len(items))
		dev[1] += 100 * l1 / float64(len(items))
		dev[2] += 100 * l2 / float64(len(items))
	}
	r.set("cpi_dev_pct", dev[0], len(items))
	r.set("l1_dev_pct", dev[1], len(items))
	r.set("l2_dev_pct", dev[2], len(items))
	return nil
}

// checkSweep checks, outside the timed region, one seed-chosen config
// per plan against a from-scratch (no checkpoint) ExecutePlan bit for
// bit, and Σ weight·CPI against every estimate's CPI.
func checkSweep(r *report, rng *rand.Rand, items []sweepItem, configs []cpu.Config, ests [][]*pipeline.Estimate) error {
	for k, it := range items {
		for _, est := range ests[k] {
			r.check(weightedCPI(est) == est.CPI, "%s/%s: Σ weight·CPI %v != estimate CPI %v", it.plan.Benchmark, it.plan.Method, weightedCPI(est), est.CPI)
		}
		ci := rng.Intn(len(configs))
		scratch, err := pipeline.ExecutePlan(it.prog, it.plan, configs[ci], sweepExec())
		if err != nil {
			return err
		}
		r.check(sameEstimate(scratch, ests[k][ci]), "%s/%s under %s: checkpoint-backed estimate differs from scratch", it.plan.Benchmark, it.plan.Method, configs[ci].Name)
	}
	return nil
}
