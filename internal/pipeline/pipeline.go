// Package pipeline orchestrates end-to-end sampled simulation: it
// executes a sampling plan (functional fast-forward and warming between
// points, detailed simulation of each point), combines point metrics by
// weight into whole-program estimates, obtains ground truth from a
// full detailed run, and evaluates both the paper's modeled speedups
// and measured wall-clock splits.
package pipeline

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"mlpa/internal/ckpt"
	"mlpa/internal/cpu"
	"mlpa/internal/emu"
	"mlpa/internal/obs"
	"mlpa/internal/parallel"
	"mlpa/internal/prog"
	"mlpa/internal/sampling"
	"mlpa/internal/staticanalysis"
	"mlpa/internal/staticanalysis/dataflow"
	"mlpa/internal/stats"
)

// ExecOptions controls plan execution.
type ExecOptions struct {
	// Warmup, when non-zero, functionally warms caches and predictor
	// over up to this many instructions immediately preceding each
	// point's detailed lead-in (SMARTS-style functional warming). The
	// warm window may extend back past the fast-forward gap into
	// regions earlier points measured — warming replays them
	// functionally without re-measuring — so a large Warmup approaches
	// continuously warmed state regardless of point spacing. When
	// zero, every point runs on a cold context, which is what plain
	// fast-forwarding implies.
	//
	// At this reproduction's nominal-to-emulated scale, interval
	// lengths shrink by the scale factor while cache capacities and
	// miss latencies do not, so cold-start transients that cost a few
	// percent at the paper's 10M-instruction intervals would dominate
	// scaled points entirely. The experiment harness therefore applies
	// the same warmup policy to every method; the cold variant remains
	// available for the cold-start ablation.
	//
	// Warming is not replayed per point. Consecutive points whose warm
	// windows begin at the same instruction — every point under
	// unbounded warmup (math.MaxUint64), and under a finite Warmup the
	// points within Warmup instructions of program start — share one
	// warm stream per scheduler chunk that moves forward once, fed by
	// the points' own detailed windows, so a plan warms O(program)
	// instructions instead of O(points × program). Each point's
	// detailed context starts from a copy of the stream's caches and
	// predictor, bit-identical to a cold context warmed over the
	// point's whole window.
	Warmup uint64

	// DetailLeadIn, when non-zero, additionally simulates up to this
	// many instructions in detail immediately before each point with
	// the statistics discarded, so the measured region starts with a
	// filled out-of-order window instead of an empty pipeline
	// (detailed warmup). Scaled-down points are short enough that the
	// pipeline ramp would otherwise bias every point's CPI upward.
	DetailLeadIn uint64

	// RunAhead, when non-zero, continues detailed execution up to this
	// many instructions past each point with the statistics discarded,
	// so the point's trailing memory latencies overlap successor work
	// as they would in continuous simulation instead of draining into
	// the point's own cycle count. Without it, short scaled points
	// containing miss bursts absorb a full drain latency apiece.
	RunAhead uint64

	// Workers selects how many simulation points execute concurrently.
	// 0 picks GOMAXPROCS; 1 executes sequentially in line on the
	// calling goroutine (no goroutines are spawned). The scheduler
	// splits the plan into contiguous chunks, each with its own machine
	// and warm stream; splitting a shared warm stream makes the later
	// chunk re-warm the prefix, which the chunk cost model weighs
	// against the parallel gain. Every point runs on its own fresh
	// detailed context whose functional and warm state are pure
	// functions of its instruction position and warm start, so the
	// resulting Estimate, point records and journal aggregates are
	// bit-for-bit identical for every worker count (wall-clock fields
	// excepted); see docs/PARALLELISM.md for the contract.
	Workers int

	// Ctx, when non-nil, cancels plan execution: in-flight points
	// finish, queued points are abandoned, and ExecutePlan returns the
	// context's error. A nil Ctx means context.Background().
	Ctx context.Context

	// Cache, when non-nil, is a shared functional-state cache for this
	// plan's program: concurrent and repeated executions (for example
	// the same plan under both Table I configurations) reuse each
	// other's fast-forward work through it. It must have been created
	// by parallel.NewStateCache for the same *prog.Program; a
	// mismatched cache is ignored. Nil gives each ExecutePlan call a
	// private cache.
	Cache *parallel.StateCache

	// Obs, when non-nil, receives per-point journal records, stage
	// spans and pipeline metrics for the run. A nil Obs costs nothing.
	Obs *obs.Runtime

	// ScrubDeadRegs, when set, zeroes every register outside the static
	// live-in set at each point's boundary before detailed simulation.
	// Liveness soundness (see internal/staticanalysis/dataflow) makes
	// the scrub architecturally invisible, so results are bit-identical
	// with and without it — the property the soundness harness asserts
	// on the whole benchmark suite, and the property that makes live-in
	// masks a safe storage schema for portable checkpoints.
	ScrubDeadRegs bool

	// Checkpoints, when non-nil, switches ExecutePlan to checkpoint-
	// backed execution: instead of fast-forwarding to each point's warm
	// start, the scheduler restores the point's machine from the set in
	// O(checkpoint size). Fast-forward is thereby paid once per
	// (program, plan, warm policy) — by BuildCheckpointSet or a loaded
	// ckpt.Set — and every subsequent configuration evaluation reuses
	// it. Liveness soundness makes the restored (live-in-scrubbed,
	// touched-pages-only) state architecturally indistinguishable from
	// the fast-forwarded machine, so estimates, point records and
	// journals stay bit-identical to from-scratch execution at every
	// worker count. The set must match this program, plan and warm
	// policy; a mismatch fails with an error wrapping ckpt.ErrMismatch.
	Checkpoints *ckpt.Set
}

// PointRecord is the observable outcome of one executed simulation
// point. ExecutePlan retains one record per point on the Estimate and
// journals it through ExecOptions.Obs, so per-point behaviour — which
// the weighted sums would otherwise discard — stays inspectable. The
// raw hit/access counts are kept alongside the derived rates so the
// whole-program aggregates can be reproduced from the records alone.
type PointRecord struct {
	Index  int     `json:"index"`
	Start  uint64  `json:"start"`
	End    uint64  `json:"end"`
	Weight float64 `json:"weight"`

	// Measured-region metrics.
	Insts  uint64  `json:"insts"`
	Cycles uint64  `json:"cycles"`
	CPI    float64 `json:"cpi"`
	L1Hit  float64 `json:"l1_hit"`
	L2Hit  float64 `json:"l2_hit"`

	// Raw cache counts for exact re-aggregation.
	L1Accesses uint64 `json:"l1_accesses"`
	L1Hits     uint64 `json:"l1_hits"`
	L2Accesses uint64 `json:"l2_accesses"`
	L2Hits     uint64 `json:"l2_hits"`

	// Warmup split: how the gap before the point (and the discarded
	// detailed regions around it) was spent, in instructions.
	FastForward uint64 `json:"ff"`
	Warmed      uint64 `json:"warmed"`
	Lead        uint64 `json:"lead"`
	Tail        uint64 `json:"tail"`

	// Wall-clock split attributable to this point.
	WallFunctional time.Duration `json:"wall_functional_ns"`
	WallDetailed   time.Duration `json:"wall_detailed_ns"`

	// LiveIn is the static live-in summary at the point's boundary
	// (the position the machine enters detailed simulation at).
	LiveIn sampling.LiveIn `json:"livein"`
}

// Estimate is the outcome of executing one sampling plan.
type Estimate struct {
	Benchmark string
	Method    string

	// Weighted whole-program metric estimates (Table II metrics).
	CPI   float64
	L1Hit float64
	L2Hit float64

	// Instruction split (Table III metrics).
	DetailedInsts   uint64
	FunctionalInsts uint64
	TotalInsts      uint64
	Points          int

	// Measured wall-clock split of this reproduction's own simulators.
	WallDetailed   time.Duration
	WallFunctional time.Duration

	// PointRecords holds one record per executed point, in plan order.
	PointRecords []PointRecord
}

// DetailedFraction returns DetailedInsts / TotalInsts.
func (e *Estimate) DetailedFraction() float64 {
	if e.TotalInsts == 0 {
		return 0
	}
	return float64(e.DetailedInsts) / float64(e.TotalInsts)
}

// FunctionalFraction returns FunctionalInsts / TotalInsts.
func (e *Estimate) FunctionalFraction() float64 {
	if e.TotalInsts == 0 {
		return 0
	}
	return float64(e.FunctionalInsts) / float64(e.TotalInsts)
}

// Wall returns the total measured wall time.
func (e *Estimate) Wall() time.Duration { return e.WallDetailed + e.WallFunctional }

// FullDetailed runs the whole program through the detailed simulator
// (the sim-outorder baseline that defines ground truth).
func FullDetailed(p *prog.Program, cfg cpu.Config) (cpu.Result, time.Duration, error) {
	if err := staticanalysis.Preflight(p); err != nil {
		return cpu.Result{}, 0, fmt.Errorf("pipeline: preflight for %s: %w", p.Name, err)
	}
	m := emu.New(p, 0)
	s, err := cpu.New(cfg)
	if err != nil {
		return cpu.Result{}, 0, err
	}
	t0 := time.Now()
	res, err := s.Run(m, 0)
	if err != nil {
		return cpu.Result{}, 0, fmt.Errorf("pipeline: full detailed run of %s: %w", p.Name, err)
	}
	return res, time.Since(t0), nil
}

// pointTask is the precomputed execution budget of one simulation
// point: the plain fast-forward from the previous point's run-ahead
// end, the functional-warming window and discarded detailed lead-in
// before the point, and the discarded run-ahead after it. Tasks are a
// pure function of (plan, options), so every worker count derives the
// same schedule.
type pointTask struct {
	skip uint64 // plain fast-forward beyond the previous point's reach
	warm uint64 // depth of warm history (may cover earlier points' regions)
	lead uint64 // discarded detailed lead-in
	tail uint64 // discarded detailed run-ahead
	// warmStart is the instruction position warming begins at:
	// pt.Start - lead - warm.
	warmStart uint64
	// warmInc is the warming this point adds to its warm stream. A
	// point whose warm start equals the previous point's continues
	// that point's stream, so only the gap since the previous run-ahead
	// end is newly warmed; otherwise warmInc == warm.
	warmInc uint64
}

// planTasks derives the per-point execution budgets.
func planTasks(plan *sampling.Plan, opts ExecOptions) ([]pointTask, error) {
	tasks := make([]pointTask, len(plan.Points))
	var cursor uint64
	for pi, pt := range plan.Points {
		if pt.Start < cursor {
			return nil, fmt.Errorf("pipeline: plan %s/%s: point %d [%d,%d) overlaps the previous point or is unsorted (machine already at instruction %d)",
				plan.Benchmark, plan.Method, pi, pt.Start, pt.End, cursor)
		}
		ff := pt.Start - cursor
		lead := opts.DetailLeadIn
		if lead > ff {
			lead = ff
		}
		// The warm window is capped by available history, not by the
		// gap: when Warmup exceeds the distance to the previous point,
		// warming replays regions earlier points measured (functional
		// warming does not re-measure), so closely spaced points still
		// enter detailed simulation with deep cache and predictor
		// history — matching a continuously warmed run.
		warm := opts.Warmup
		if warm > pt.Start-lead {
			warm = pt.Start - lead
		}
		// Run-ahead is bounded by the distance to the next point (or
		// program end), so the machine never advances into a region
		// another point will measure.
		tail := opts.RunAhead
		limit := plan.TotalInsts
		if pi+1 < len(plan.Points) {
			limit = plan.Points[pi+1].Start
		}
		if avail := limit - pt.End; tail > avail {
			tail = avail
		}
		warmStart := pt.Start - lead - warm
		var skip uint64
		if warmStart > cursor {
			skip = warmStart - cursor
		}
		task := pointTask{skip: skip, warm: warm, lead: lead, tail: tail, warmStart: warmStart, warmInc: warm}
		if pi > 0 && warmStart == tasks[pi-1].warmStart {
			task.warmInc = pt.Start - lead - cursor
		}
		tasks[pi] = task
		cursor = pt.End + tail
	}
	return tasks, nil
}

// runPoint executes one simulation point. m sits inside the point's
// warm stream: warmer has warmed over every instruction from the
// task's warm start to m's position. runPoint warms the stream up to
// the point's boundary (pt.Start - lead) and simulates the point on a
// fresh detailed context carrying the stream's warm state — a Fork of
// warmer when keep is set, so the window's instructions flow back into
// warmer and it continues to the next point; otherwise warmer itself,
// which is then spent. Either way the detailed context is in the state
// a cold cpu.Sim warmed over the task's whole warm window would be,
// so results do not depend on how points share streams. t0 is when
// this point's functional phase (fast-forward, restore or state
// materialization) began, so the wall split charges state
// reconstruction to the point.
func runPoint(m *emu.Machine, warmer *cpu.Sim, keep bool, reg *obs.Registry, plan *sampling.Plan, pi int, task pointTask, opts ExecOptions, t0 time.Time) (PointRecord, error) {
	pt := plan.Points[pi]
	if boundary := pt.Start - task.lead; m.Insts < boundary {
		n := boundary - m.Insts
		if err := warmer.Warm(m, n); err != nil {
			return PointRecord{}, err
		}
		reg.Counter("pipeline.warmed_insts").Add(int64(n))
	}
	sim := warmer
	if keep {
		sim = warmer.Fork()
	}
	sim.Metrics = reg
	// The machine now sits at the point's boundary (pt.Start - lead).
	// Record the static live-in set there — the portable-checkpoint
	// storage schema — and, under the soundness harness, scrub the
	// statically-dead registers before any further execution touches
	// them.
	livein, err := boundaryLiveIn(m)
	if err != nil {
		return PointRecord{}, fmt.Errorf("pipeline: point %d in %s/%s: %w",
			pi, plan.Benchmark, plan.Method, err)
	}
	if opts.ScrubDeadRegs {
		scrubDeadRegs(m, livein)
	}
	if opts.Warmup > 0 && task.warm < pt.Len() {
		// The context would enter the point with less warmed history
		// than the point is long — typically the contiguous points a
		// plan places at the very start of the program. Dry-run the
		// point region on a cloned machine to warm the instruction
		// cache and branch predictor (data state is left untouched; see
		// cpu.WarmCode), so the point measures the steady-state
		// behaviour of the phase it represents rather than one-time
		// code-fill transients. The dry run stays on this point's
		// context; the warm stream never sees it.
		if err := sim.WarmCode(m.Clone(), pt.Len()); err != nil {
			return PointRecord{}, err
		}
	}
	wallFunc := time.Since(t0)

	t0 = time.Now()
	before := m.Insts
	res, err := sim.RunWindow(m, task.lead, pt.Len(), task.tail)
	wallDet := time.Since(t0)
	if err != nil {
		return PointRecord{}, fmt.Errorf("pipeline: detailed point %d [%d,%d) in %s/%s: %w",
			pi, pt.Start, pt.End, plan.Benchmark, plan.Method, err)
	}
	if keep {
		reg.Counter("pipeline.warmed_insts").Add(int64(m.Insts - before))
	}
	if res.Insts != pt.Len() {
		return PointRecord{}, fmt.Errorf("pipeline: point %d [%d,%d) in %s/%s simulated %d instructions, want %d",
			pi, pt.Start, pt.End, plan.Benchmark, plan.Method, res.Insts, pt.Len())
	}
	return PointRecord{
		Index:          pi,
		Start:          pt.Start,
		End:            pt.End,
		Weight:         pt.Weight,
		Insts:          res.Insts,
		Cycles:         res.Cycles,
		CPI:            res.CPI(),
		L1Hit:          res.L1.HitRate(),
		L2Hit:          res.L2.HitRate(),
		L1Accesses:     res.L1.Accesses,
		L1Hits:         res.L1.Hits(),
		L2Accesses:     res.L2.Accesses,
		L2Hits:         res.L2.Hits(),
		FastForward:    task.skip,
		Warmed:         task.warm,
		Lead:           task.lead,
		Tail:           task.tail,
		WallFunctional: wallFunc,
		WallDetailed:   wallDet,
		LiveIn:         livein,
	}, nil
}

// boundaryLiveIn computes the static live-in summary at the machine's
// current position. The dataflow solution is cached per program, so
// per-point queries cost one backward block walk each.
func boundaryLiveIn(m *emu.Machine) (sampling.LiveIn, error) {
	live, mem, err := dataflow.For(m.Prog).LiveInAt(m.PC)
	if err != nil {
		return sampling.LiveIn{}, err
	}
	ints, fps := live.Split()
	return sampling.LiveIn{PC: m.PC, Int: ints, FP: fps, Mem: mem}, nil
}

// scrubDeadRegs zeroes every register cell outside the live-in masks.
// By liveness soundness this cannot change the execution.
func scrubDeadRegs(m *emu.Machine, li sampling.LiveIn) {
	for i := 1; i < len(m.IntRegs); i++ {
		if li.Int&(1<<uint(i)) == 0 {
			m.IntRegs[i] = 0
		}
	}
	for i := range m.FPRegs {
		if li.FP&(1<<uint(i)) == 0 {
			m.FPRegs[i] = 0
		}
	}
}

// ExecutePlan performs the sampled simulation a plan describes and
// returns the weighted estimates. Every point runs on a fresh detailed
// context from functional state that is a pure function of its
// instruction position: plain fast-forward to the point's warm window,
// functional warming across the window (pass ExecOptions.Warmup; zero
// keeps every point cold, as the paper's plain fast-forward
// methodology implies), then the measured detailed region. Because
// points are independent, ExecOptions.Workers of them execute
// concurrently, and a deterministic merge orders the outcome by plan
// index — estimates are bit-for-bit identical for every worker count.
func ExecutePlan(p *prog.Program, plan *sampling.Plan, cfg cpu.Config, opts ExecOptions) (*Estimate, error) {
	return executePlan(p, plan, cfg, opts, nil)
}

// executePlan is ExecutePlan on a given chunk partition of the points;
// nil selects the cost-aware schedule. The partition never changes
// results, which is what lets tests force any split.
func executePlan(p *prog.Program, plan *sampling.Plan, cfg cpu.Config, opts ExecOptions, chunks []parallel.Chunk) (*Estimate, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	// Preflight: refuse to spend emulation time on a malformed guest.
	// Memoized per program, so re-executing plans costs nothing extra.
	if err := staticanalysis.Preflight(p); err != nil {
		return nil, fmt.Errorf("pipeline: preflight for %s/%s: %w", plan.Benchmark, plan.Method, err)
	}
	tasks, err := planTasks(plan, opts)
	if err != nil {
		return nil, err
	}
	if opts.Checkpoints != nil {
		// A stale or foreign set must fail loudly up front, not silently
		// produce estimates for a different program, plan or warm policy.
		if err := opts.Checkpoints.Match(p, plan, ckptPolicy(opts)); err != nil {
			return nil, fmt.Errorf("pipeline: checkpoint set for %s/%s: %w", plan.Benchmark, plan.Method, err)
		}
	}
	ctx := opts.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(plan.Points) {
		workers = len(plan.Points)
	}
	span := opts.Obs.StartSpan("pipeline.execute_plan",
		obs.KV("benchmark", plan.Benchmark),
		obs.KV("method", plan.Method),
		obs.KV("config", cfg.Name),
		obs.KV("points", len(plan.Points)),
		obs.KV("workers", workers))
	defer span.End()
	reg := opts.Obs.Metrics()

	if chunks == nil {
		chunks = planPartition(plan, tasks, workers, opts.Checkpoints != nil)
	}
	recs := make([]PointRecord, len(plan.Points))
	if err := executePoints(ctx, p, plan, cfg, reg, tasks, opts, chunks, recs); err != nil {
		return nil, err
	}
	return mergeEstimate(plan, cfg.Name, recs, opts.Obs), nil
}

// mergeEstimate is the deterministic merge: it aggregates and journals
// the point records in plan-index order, so weighted sums, journal
// streams and worst-case bookkeeping are independent of worker count
// and completion order.
func mergeEstimate(plan *sampling.Plan, cfgName string, recs []PointRecord, rt *obs.Runtime) *Estimate {
	reg := rt.Metrics()
	est := &Estimate{
		Benchmark:       plan.Benchmark,
		Method:          plan.Method,
		TotalInsts:      plan.TotalInsts,
		DetailedInsts:   plan.DetailedInsts(),
		FunctionalInsts: plan.FunctionalInsts(),
		Points:          len(plan.Points),
		PointRecords:    recs,
	}
	var l1Num, l1Den, l2Num, l2Den float64
	for i := range recs {
		rec := &recs[i]
		est.WallFunctional += rec.WallFunctional
		est.WallDetailed += rec.WallDetailed
		est.CPI += rec.Weight * rec.CPI
		// Hit rates are access-weighted: each point contributes its
		// access *density* scaled by its representativeness weight, so
		// phases that barely touch a cache level cannot dominate its
		// estimated hit rate.
		perInst := 1 / float64(rec.Insts)
		l1Den += rec.Weight * float64(rec.L1Accesses) * perInst
		l1Num += rec.Weight * float64(rec.L1Hits) * perInst
		l2Den += rec.Weight * float64(rec.L2Accesses) * perInst
		l2Num += rec.Weight * float64(rec.L2Hits) * perInst
		journalPoint(rt, plan, cfgName, *rec)
	}
	reg.Counter("pipeline.points_executed").Add(int64(len(plan.Points)))
	reg.Counter("pipeline.detailed_insts").Add(int64(est.DetailedInsts))
	reg.Counter("pipeline.plan_functional_insts").Add(int64(est.FunctionalInsts))
	est.L1Hit = ratioOr1(l1Num, l1Den)
	est.L2Hit = ratioOr1(l2Num, l2Den)
	rt.Emit("estimate", map[string]any{
		"benchmark":          est.Benchmark,
		"method":             est.Method,
		"config":             cfgName,
		"cpi":                est.CPI,
		"l1_hit":             est.L1Hit,
		"l2_hit":             est.L2Hit,
		"points":             est.Points,
		"detailed_insts":     est.DetailedInsts,
		"functional_insts":   est.FunctionalInsts,
		"total_insts":        est.TotalInsts,
		"wall_detailed_ns":   est.WallDetailed.Nanoseconds(),
		"wall_functional_ns": est.WallFunctional.Nanoseconds(),
	})
	return est
}

// Cost-model factors for the chunked point scheduler, in units of one
// plain fast-forwarded instruction. They only steer load balancing —
// results are bit-identical for any partition — so rough interpreter-
// speed ratios are all that is needed: functional warming drives the
// cache/predictor models, detailed simulation runs the full
// out-of-order core.
const (
	warmCostFactor   = 8
	detailCostFactor = 64
	// minChunkCost keeps every chunk worth at least about one chunk
	// set-up — a fresh 8 MiB machine and detailed context, ~2 ms or
	// ~0.5M fast-forwarded instructions at ~190 M inst/s — so the
	// scheduler never splits work too small to pay for its own start.
	minChunkCost = 1 << 19
	// ckptRestoreCost is the chunk-startup estimate under checkpoint-
	// backed execution, in the same fast-forward-instruction units:
	// decoding registers plus replaying the touched pages of a typical
	// state is on the order of a few tens of microseconds, ~64k
	// fast-forwarded instructions.
	ckptRestoreCost = 1 << 16
)

// taskCost estimates one point's execution cost for the partitioner
// when its chunk has already started: only the warming the point adds
// to its stream counts, not the warm history it inherits.
func taskCost(t pointTask, ptLen uint64) float64 {
	return float64(t.skip) +
		warmCostFactor*float64(t.warmInc) +
		detailCostFactor*float64(t.lead+ptLen+t.tail)
}

// chunkStartCost estimates what a chunk starting at task t pays before
// t's own cost: positioning a machine at the warm start (fast-forward
// from program start, or a checkpoint restore) plus, for a point that
// shares its predecessor's warm start, the warm prefix from the warm
// start to where t's incremental warm begins — the stream a chunk
// starting mid-stream must rebuild.
func chunkStartCost(t pointTask, ckptBacked bool) float64 {
	position := float64(t.warmStart)
	if ckptBacked {
		// Checkpoint restore replaces the fast-forward to the warm start
		// with an O(checkpoint size) state load, a small constant
		// instead of proportional to the warm-start position. This
		// frees the partitioner to open more chunks for
		// deep-in-the-program plans — exactly the plans plain
		// fast-forward keeps nearly sequential.
		position = ckptRestoreCost
	}
	return position + warmCostFactor*float64(t.warm-t.warmInc)
}

// planPartition derives the cost-aware chunk schedule for a plan: a
// pure function of (plan, tasks, workers) and the host's GOMAXPROCS,
// so every worker observes the same partition. A chunk's startup
// estimate is chunkStartCost of its first point — pessimistic when a
// shared cache already holds nearby states, which only biases toward
// fewer chunks. Under unbounded warmup every point shares warm start
// 0, so splitting a plan re-warms the prefix up to each extra chunk's
// first point; the model charges exactly that. The worker budget is
// clamped to GOMAXPROCS before partitioning: chunks beyond the cores
// actually available cannot shorten the real makespan, only time-slice
// against each other, so a -workers value above the machine (and in
// particular any workers>1 on a single-core host) degenerates to the
// sequential schedule instead of a guaranteed loss. Results are
// bit-identical for every partition, so the clamp affects wall time
// only.
func planPartition(plan *sampling.Plan, tasks []pointTask, workers int, ckptBacked bool) []parallel.Chunk {
	if g := runtime.GOMAXPROCS(0); workers > g {
		workers = g
	}
	return parallel.PartitionChunks(len(plan.Points), parallel.ChunkOptions{
		Workers:      workers,
		Cost:         func(i int) float64 { return taskCost(tasks[i], plan.Points[i].Len()) },
		StartCost:    func(i int) float64 { return chunkStartCost(tasks[i], ckptBacked) },
		MinChunkCost: minChunkCost,
	})
}

// PlanChunks reports how many chunks ExecutePlan's cost-aware
// scheduler would run (plan, opts) with at the given worker count
// (<= 0 selects GOMAXPROCS). It is the measurement hook for bench
// reports; the schedule itself never influences results.
func PlanChunks(plan *sampling.Plan, opts ExecOptions, workers int) (int, error) {
	tasks, err := planTasks(plan, opts)
	if err != nil {
		return 0, err
	}
	return len(planPartition(plan, tasks, workers, opts.Checkpoints != nil)), nil
}

// executePoints runs the points in the given chunks, one worker per
// chunk. Each chunk materializes one machine at its first point's
// warm start — from the checkpoint set when one is given, else from
// the shared state cache — then *chains* it through the chunk's
// remaining points: after runPoint the machine sits exactly at the
// next task's fast-forward cursor (planTasks guarantees
// cursor = pt.End + tail), so within a chunk no fast-forward work is
// repeated. Warming chains the same way: consecutive points that share
// a warm start (every point under unbounded warmup) share one warming
// cpu.Sim, the chunk's warm stream, which moves forward once through
// the incremental warm gaps and the detailed windows (see runPoint)
// instead of each point replaying its whole warm window on a cold
// context. A point with a different warm start opens a new stream.
// Chunks are contiguous and cost-balanced, and the chunk count adapts
// to the work available — one chunk is exactly the sequential
// workers==1 loop — so parallel execution never regresses below
// sequential. Functional and warm state remain pure functions of
// instruction position and warm start, which keeps results
// bit-identical for every worker count and partition.
func executePoints(ctx context.Context, p *prog.Program, plan *sampling.Plan, cfg cpu.Config, reg *obs.Registry, tasks []pointTask, opts ExecOptions, chunks []parallel.Chunk, recs []PointRecord) error {
	cache := opts.Cache
	if cache == nil || cache.Program() != p {
		cache = parallel.NewStateCache(p, 0, reg)
	}
	set := opts.Checkpoints
	reg.Gauge("pipeline.plan_chunks").Set(float64(len(chunks)))
	stage := opts.Obs.Progress().Stage("pipeline.points")
	stage.AddTotal(int64(len(plan.Points)))
	return parallel.ForEachOpt(ctx, len(chunks), len(chunks), func(ctx context.Context, k int) error {
		var m *emu.Machine
		var warmer *cpu.Sim // the open warm stream, nil when none is
		c := chunks[k]
		for pi := c.Start; pi < c.End; pi++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			task := tasks[pi]
			t0 := time.Now()
			if warmer == nil {
				// Open a warm stream: a cold context and a machine at the
				// task's warm start.
				var err error
				if m, err = positionAt(ctx, m, p, plan, pi, task.warmStart, cache, set, reg); err != nil {
					return err
				}
				if warmer, err = cpu.New(cfg); err != nil {
					return err
				}
			}
			keep := pi+1 < c.End && tasks[pi+1].warmStart == task.warmStart
			rec, err := runPoint(m, warmer, keep, reg, plan, pi, task, opts, t0)
			if err != nil {
				return err
			}
			if !keep {
				warmer = nil
			}
			recs[pi] = rec
			stage.Add(1)
		}
		return nil
	}, parallel.ForEachOptions{Metrics: reg})
}

// positionAt returns a machine at instruction pos for point pi,
// reusing m (the chunk's machine, nil before its first point) where it
// can.
func positionAt(ctx context.Context, m *emu.Machine, p *prog.Program, plan *sampling.Plan, pi int, pos uint64, cache *parallel.StateCache, set *ckpt.Set, reg *obs.Registry) (*emu.Machine, error) {
	switch {
	case m != nil && m.Insts == pos:
		// The previous point's run-ahead ended exactly here
		// (planTasks' cursor invariant): reuse the machine as-is.
		return m, nil
	case set != nil:
		// Checkpoint-backed: restore the point's warm-start state in
		// O(checkpoint size) instead of fast-forwarding from program
		// start. After the chunk's first point the machine is restored
		// in place: NewMachine leaves dirty-page tracking on, so
		// RestoreInto resets memory in O(touched pages) instead of
		// paying a fresh memory image per point.
		var err error
		if m == nil {
			m, err = set.States[pi].NewMachine(p)
		} else {
			err = set.States[pi].RestoreInto(m)
		}
		if err != nil {
			return nil, fmt.Errorf("pipeline: checkpoint restore of point %d in %s: %w", pi, plan.Benchmark, err)
		}
		m.Metrics = reg
		reg.Counter("pipeline.ckpt_restores").Add(1)
		return m, nil
	case m == nil || m.Insts > pos:
		// First point of the chunk, or a warm window reaching back
		// past the machine: materialize from the shared cache,
		// publishing the state for other executions.
		m, err := cache.MachineAt(ctx, pos)
		if err != nil {
			return nil, fmt.Errorf("pipeline: fast-forward in %s: %w", plan.Benchmark, err)
		}
		m.Metrics = reg
		return m, nil
	default:
		if err := fastForward(ctx, m, pos, reg); err != nil {
			return nil, fmt.Errorf("pipeline: fast-forward in %s: %w", plan.Benchmark, err)
		}
		return m, nil
	}
}

// fastForward advances m to instruction position pos in cancellation-
// checked slices (the in-chunk analogue of the state cache's build
// loop), counting the instructions into pipeline.ff_insts.
func fastForward(ctx context.Context, m *emu.Machine, pos uint64, reg *obs.Registry) error {
	const slice = 1 << 20
	start := m.Insts
	defer func() { reg.Counter("pipeline.ff_insts").Add(int64(m.Insts - start)) }()
	for m.Insts < pos {
		if err := ctx.Err(); err != nil {
			return err
		}
		step := pos - m.Insts
		if step > slice {
			step = slice
		}
		n, err := m.Run(step)
		if err != nil {
			return fmt.Errorf("fast-forward to instruction %d of %s: %w", pos, m.Prog.Name, err)
		}
		if n < step && m.Halted {
			return fmt.Errorf("%s halted at instruction %d before reaching %d", m.Prog.Name, m.Insts, pos)
		}
	}
	return nil
}

// journalPoint emits one per-point journal record. The record carries
// enough raw counts that the plan's whole-program aggregates can be
// recomputed exactly from the journal alone (see docs/OBSERVABILITY.md
// for the schema).
func journalPoint(rt *obs.Runtime, plan *sampling.Plan, cfgName string, rec PointRecord) {
	if rt == nil {
		return
	}
	rt.Metrics().Histogram("pipeline.point_wall_seconds").
		Observe((rec.WallFunctional + rec.WallDetailed).Seconds())
	rt.Emit("point", map[string]any{
		"benchmark":          plan.Benchmark,
		"method":             plan.Method,
		"config":             cfgName,
		"index":              rec.Index,
		"start":              rec.Start,
		"end":                rec.End,
		"weight":             rec.Weight,
		"insts":              rec.Insts,
		"cycles":             rec.Cycles,
		"cpi":                rec.CPI,
		"l1_hit":             rec.L1Hit,
		"l2_hit":             rec.L2Hit,
		"l1_accesses":        rec.L1Accesses,
		"l1_hits":            rec.L1Hits,
		"l2_accesses":        rec.L2Accesses,
		"l2_hits":            rec.L2Hits,
		"ff":                 rec.FastForward,
		"warmed":             rec.Warmed,
		"lead":               rec.Lead,
		"tail":               rec.Tail,
		"wall_functional_ns": rec.WallFunctional.Nanoseconds(),
		"wall_detailed_ns":   rec.WallDetailed.Nanoseconds(),
	})
	// The live-in record is the storage schema for portable
	// checkpoints: together with the point record it specifies exactly
	// which architectural state a checkpoint at this boundary must
	// capture (see docs/OBSERVABILITY.md).
	rt.Emit("static_livein", map[string]any{
		"benchmark": plan.Benchmark,
		"method":    plan.Method,
		"config":    cfgName,
		"index":     rec.Index,
		"start":     rec.Start,
		"pc":        rec.LiveIn.PC,
		"live_int":  rec.LiveIn.Int,
		"live_fp":   rec.LiveIn.FP,
		"mem":       rec.LiveIn.Mem,
		"regs":      dataflow.FromMasks(rec.LiveIn.Int, rec.LiveIn.FP).String(),
	})
}

func ratioOr1(num, den float64) float64 {
	if den == 0 {
		return 1
	}
	return num / den
}

// Deviations compares an estimate against ground truth and returns the
// relative errors of the three Table II metrics.
func Deviations(est *Estimate, truth cpu.Result) (cpiDev, l1Dev, l2Dev float64) {
	return stats.Deviation(est.CPI, truth.CPI()),
		stats.Deviation(est.L1Hit, truth.L1HitRate()),
		stats.Deviation(est.L2Hit, truth.L2HitRate())
}

// MeasuredRates derives a sampling.TimeModel from this machine's own
// measured simulator rates: it times a short functional run and a
// short detailed run of the given program. Used for the
// measured-rates variant of the speedup tables.
func MeasuredRates(p *prog.Program, cfg cpu.Config, probeInsts uint64) (sampling.TimeModel, error) {
	if probeInsts == 0 {
		probeInsts = 200_000
	}
	m := emu.New(p, 0)
	t0 := time.Now()
	nf, err := m.Run(probeInsts)
	if err != nil {
		return sampling.TimeModel{}, err
	}
	fdur := time.Since(t0)

	m2 := emu.New(p, 0)
	sim, err := cpu.New(cfg)
	if err != nil {
		return sampling.TimeModel{}, err
	}
	t0 = time.Now()
	res, err := sim.Run(m2, probeInsts)
	if err != nil {
		return sampling.TimeModel{}, err
	}
	ddur := time.Since(t0)
	if fdur <= 0 || ddur <= 0 || nf == 0 || res.Insts == 0 {
		return sampling.TimeModel{}, degenerateProbeErr(p.Name, probeInsts, nf, fdur, res.Insts, ddur)
	}
	return sampling.TimeModel{
		Name:           "measured",
		DetailedRate:   float64(res.Insts) / ddur.Seconds(),
		FunctionalRate: float64(nf) / fdur.Seconds(),
	}, nil
}

// degenerateProbeErr reports a rate probe whose functional or detailed
// leg measured no work or no time, including everything that was
// measured so the caller can size the next probe.
func degenerateProbeErr(bench string, probeInsts, nf uint64, fdur time.Duration, nd uint64, ddur time.Duration) error {
	return fmt.Errorf(
		"pipeline: degenerate rate probe on %s (probeInsts %d): functional %d insts in %v, detailed %d insts in %v; raise probeInsts until both runs measure nonzero work and time",
		bench, probeInsts, nf, fdur, nd, ddur)
}
