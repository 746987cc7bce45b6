package pipeline

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"
	"time"

	"mlpa/internal/coasts"
	"mlpa/internal/config"
	"mlpa/internal/emu"
	"mlpa/internal/isa"
	"mlpa/internal/obs"
	"mlpa/internal/prog"
	"mlpa/internal/sampling"
	"mlpa/internal/simpoint"
)

// phasedProgram: outer loop alternating a memory-bound kernel and an
// ALU kernel, so sampling accuracy is actually at stake. Each phase
// sweeps its working set repeatedly, so any interval of a few hundred
// instructions observes steady-state behaviour rather than pure
// cold-start transients (mirroring how the paper's 10M-instruction
// intervals relate to SPEC working sets).
func phasedProgram(t *testing.T, trips int64) *prog.Program {
	t.Helper()
	b := prog.NewBuilder("pipephase")
	b.ReserveData(1 << 18)
	b.Li(1, trips)
	b.Label("outer")
	b.Andi(2, 1, 1)
	b.Bne(2, isa.RZero, "alu")
	// 20 sweeps of 64 strided loads over 128 KiB: misses L1, hits L2
	// once warm; steady state is reached early in each phase instance.
	b.CountedLoop("sweep", 7, 20, func() {
		b.Li(3, 0)
		b.CountedLoop("mem", 4, 64, func() {
			b.Ld(5, 3, 0)
			b.Addi(3, 3, 2048)
		})
	})
	b.Jmp("next")
	b.Label("alu")
	b.CountedLoop("alul", 4, 1300, func() {
		b.Mul(6, 6, 6)
		b.Addi(6, 6, 1)
	})
	b.Label("next")
	b.Addi(1, 1, -1)
	b.Bne(1, isa.RZero, "outer")
	b.Halt()
	return b.MustBuild()
}

func TestFullDetailed(t *testing.T) {
	p := phasedProgram(t, 10)
	res, wall, err := FullDetailed(p, config.BaseA())
	if err != nil {
		t.Fatal(err)
	}
	if res.Insts == 0 || res.Cycles == 0 {
		t.Fatalf("result = %+v", res)
	}
	if wall <= 0 {
		t.Error("wall time not measured")
	}
}

func TestExecutePlanSimPoint(t *testing.T) {
	p := phasedProgram(t, 30)
	plan, _, _, err := simpoint.Select(p, simpoint.Config{IntervalLen: 2000, Kmax: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	truth, _, err := FullDetailed(p, config.BaseA())
	if err != nil {
		t.Fatal(err)
	}
	// At this test's tiny interval scale, cold
	// structures dominate a point's cycles, so points are functionally
	// warmed — the policy the top-level harness applies uniformly to
	// every method (see DESIGN.md on scale substitution).
	est, err := ExecutePlan(p, plan, config.BaseA(), ExecOptions{Warmup: 3000})
	if err != nil {
		t.Fatal(err)
	}
	if est.Points != len(plan.Points) || est.TotalInsts != plan.TotalInsts {
		t.Errorf("estimate bookkeeping: %+v", est)
	}
	cpiDev, l1Dev, l2Dev := Deviations(est, truth)
	// The sampled estimate should be in the right ballpark: the two
	// kernels differ by >5x in CPI, so a broken estimator would show
	// enormous deviation.
	if cpiDev > 0.5 {
		t.Errorf("CPI deviation = %v (est %v, truth %v)", cpiDev, est.CPI, truth.CPI())
	}
	if l1Dev > 0.5 || l2Dev > 0.9 {
		t.Errorf("hit-rate deviations = %v, %v", l1Dev, l2Dev)
	}
}

func TestColdStartBiasExistsAndWarmupRemovesIt(t *testing.T) {
	p := phasedProgram(t, 20)
	plan, _, _, err := simpoint.Select(p, simpoint.Config{IntervalLen: 120, Kmax: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	truth, _, err := FullDetailed(p, config.BaseA())
	if err != nil {
		t.Fatal(err)
	}
	cold, err := ExecutePlan(p, plan, config.BaseA(), ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := ExecutePlan(p, plan, config.BaseA(), ExecOptions{Warmup: 3000})
	if err != nil {
		t.Fatal(err)
	}
	if cold.CPI <= warm.CPI {
		t.Errorf("cold CPI %v <= warm CPI %v; cold-start bias should inflate CPI", cold.CPI, warm.CPI)
	}
	coldDev, _, _ := Deviations(cold, truth)
	warmDev, _, _ := Deviations(warm, truth)
	if warmDev >= coldDev {
		t.Errorf("warmup did not improve deviation: warm %v, cold %v", warmDev, coldDev)
	}
}

func TestExecutePlanCoasts(t *testing.T) {
	p := phasedProgram(t, 20)
	plan, _, _, err := coasts.Select(p, coasts.Config{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	truth, _, err := FullDetailed(p, config.BaseA())
	if err != nil {
		t.Fatal(err)
	}
	est, err := ExecutePlan(p, plan, config.BaseA(), ExecOptions{Warmup: 3000})
	if err != nil {
		t.Fatal(err)
	}
	cpiDev, _, _ := Deviations(est, truth)
	if cpiDev > 0.5 {
		t.Errorf("COASTS CPI deviation = %v (est %v, truth %v)", cpiDev, est.CPI, truth.CPI())
	}
	// Coarse early points: functional fraction must be far below the
	// ~1.0 a late fine plan would need.
	if f := est.FunctionalFraction(); f > 0.6 {
		t.Errorf("COASTS functional fraction = %v", f)
	}
}

func TestExecutePlanWithWarmup(t *testing.T) {
	p := phasedProgram(t, 20)
	plan, _, _, err := simpoint.Select(p, simpoint.Config{IntervalLen: 120, Kmax: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ExecutePlan(p, plan, config.BaseA(), ExecOptions{Warmup: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestExecutePlanRejectsInvalid(t *testing.T) {
	p := phasedProgram(t, 5)
	bad := &sampling.Plan{Benchmark: "x", Method: "m", TotalInsts: 100}
	if _, err := ExecutePlan(p, bad, config.BaseA(), ExecOptions{}); err == nil {
		t.Error("invalid plan accepted")
	}
}

func TestEstimateFractions(t *testing.T) {
	e := &Estimate{DetailedInsts: 10, FunctionalInsts: 40, TotalInsts: 100}
	if e.DetailedFraction() != 0.1 || e.FunctionalFraction() != 0.4 {
		t.Errorf("fractions = %v, %v", e.DetailedFraction(), e.FunctionalFraction())
	}
	var z Estimate
	if z.DetailedFraction() != 0 || z.FunctionalFraction() != 0 {
		t.Error("zero estimate fractions != 0")
	}
}

func TestMeasuredRates(t *testing.T) {
	p := phasedProgram(t, 30)
	tm, err := MeasuredRates(p, config.BaseA(), 50_000)
	if err != nil {
		t.Fatal(err)
	}
	if tm.DetailedRate <= 0 || tm.FunctionalRate <= 0 {
		t.Fatalf("rates = %+v", tm)
	}
	if tm.FunctionalRate <= tm.DetailedRate {
		t.Errorf("functional rate %v not above detailed rate %v", tm.FunctionalRate, tm.DetailedRate)
	}
}

func TestDeterministicEstimates(t *testing.T) {
	p := phasedProgram(t, 15)
	plan, _, _, err := simpoint.Select(p, simpoint.Config{IntervalLen: 100, Kmax: 6, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	e1, err := ExecutePlan(p, plan, config.BaseA(), ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	e2, err := ExecutePlan(p, plan, config.BaseA(), ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if e1.CPI != e2.CPI || e1.L1Hit != e2.L1Hit || e1.L2Hit != e2.L2Hit {
		t.Errorf("nondeterministic estimates: %+v vs %+v", e1, e2)
	}
}

func TestConfigBPresent(t *testing.T) {
	// Both Table I configs must run the pipeline.
	p := phasedProgram(t, 8)
	plan, _, _, err := coasts.Select(p, coasts.Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range config.All() {
		if _, err := ExecutePlan(p, plan, cfg, ExecOptions{}); err != nil {
			t.Errorf("config %s: %v", cfg.Name, err)
		}
	}
}

// TestJournalRecordsReproduceEstimate is the observability acceptance
// test: the per-point records — both the in-memory copies on the
// Estimate and their JSONL journal round-trip — must reproduce the
// reported whole-program aggregates exactly (same summation order,
// CPI within 1e-12), and the wall/point bookkeeping must add up.
func TestJournalRecordsReproduceEstimate(t *testing.T) {
	p := phasedProgram(t, 30)
	plan, _, _, err := simpoint.Select(p, simpoint.Config{IntervalLen: 2000, Kmax: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	sink := obs.NewJSONLSink(&buf)
	rt := obs.New(sink)
	est, err := ExecutePlan(p, plan, config.BaseA(), ExecOptions{Warmup: 3000, Obs: rt})
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Err(); err != nil {
		t.Fatal(err)
	}
	if len(est.PointRecords) != est.Points || est.Points != len(plan.Points) {
		t.Fatalf("point records = %d, estimate points = %d, plan points = %d",
			len(est.PointRecords), est.Points, len(plan.Points))
	}

	check := func(src string, recs []PointRecord) {
		t.Helper()
		var cpi float64
		var l1Num, l1Den, l2Num, l2Den float64
		var wallF, wallD time.Duration
		for _, r := range recs {
			cpi += r.Weight * r.CPI
			perInst := 1 / float64(r.Insts)
			l1Den += r.Weight * float64(r.L1Accesses) * perInst
			l1Num += r.Weight * float64(r.L1Hits) * perInst
			l2Den += r.Weight * float64(r.L2Accesses) * perInst
			l2Num += r.Weight * float64(r.L2Hits) * perInst
			wallF += r.WallFunctional
			wallD += r.WallDetailed
		}
		if math.Abs(cpi-est.CPI) > 1e-12 {
			t.Errorf("%s: CPI from records %v != estimate %v", src, cpi, est.CPI)
		}
		l1 := l1Num / l1Den
		l2 := l2Num / l2Den
		if l1Den == 0 {
			l1 = 1
		}
		if l2Den == 0 {
			l2 = 1
		}
		if math.Abs(l1-est.L1Hit) > 1e-12 || math.Abs(l2-est.L2Hit) > 1e-12 {
			t.Errorf("%s: hit rates from records %v/%v != estimate %v/%v", src, l1, l2, est.L1Hit, est.L2Hit)
		}
		if wallF != est.WallFunctional || wallD != est.WallDetailed {
			t.Errorf("%s: wall split from records %v/%v != estimate %v/%v",
				src, wallF, wallD, est.WallFunctional, est.WallDetailed)
		}
	}
	check("in-memory", est.PointRecords)

	// JSONL round-trip: decode the journal's point events back into
	// records and re-check. JSON float64 encoding is exact, so the
	// journal is as authoritative as the in-memory copy.
	recs, err := obs.ReadJournal(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var fromJournal []PointRecord
	var sawEstimate, sawSpan bool
	for _, rec := range recs {
		switch rec["ev"] {
		case "span":
			sawSpan = true
		case "estimate":
			sawEstimate = true
			if rec["cpi"].(float64) != est.CPI {
				t.Errorf("journal estimate CPI %v != %v", rec["cpi"], est.CPI)
			}
		case "point":
			if rec["benchmark"] != plan.Benchmark || rec["method"] != plan.Method {
				t.Errorf("point record mislabeled: %v", rec)
			}
			fromJournal = append(fromJournal, PointRecord{
				Index:          int(rec["index"].(float64)),
				Weight:         rec["weight"].(float64),
				Insts:          uint64(rec["insts"].(float64)),
				CPI:            rec["cpi"].(float64),
				L1Accesses:     uint64(rec["l1_accesses"].(float64)),
				L1Hits:         uint64(rec["l1_hits"].(float64)),
				L2Accesses:     uint64(rec["l2_accesses"].(float64)),
				L2Hits:         uint64(rec["l2_hits"].(float64)),
				WallFunctional: time.Duration(rec["wall_functional_ns"].(float64)),
				WallDetailed:   time.Duration(rec["wall_detailed_ns"].(float64)),
			})
		}
	}
	if !sawEstimate {
		t.Error("journal missing estimate record")
	}
	if !sawSpan {
		t.Error("journal missing pipeline span")
	}
	check("journal", fromJournal)

	// Metrics side: the registry's counters must agree with the run.
	reg := rt.Metrics()
	if got := reg.Counter("pipeline.points_executed").Value(); got != int64(est.Points) {
		t.Errorf("points_executed counter = %d, want %d", got, est.Points)
	}
	if got := reg.Counter("pipeline.detailed_insts").Value(); got != int64(est.DetailedInsts) {
		t.Errorf("detailed_insts counter = %d, want %d", got, est.DetailedInsts)
	}
	if reg.Counter("cpu.flushes").Value() < 0 || reg.Histogram("pipeline.point_wall_seconds").Stat().Count != int64(est.Points) {
		t.Errorf("point wall histogram count = %d, want %d",
			reg.Histogram("pipeline.point_wall_seconds").Stat().Count, est.Points)
	}
}

// TestPlanErrorsNamePoint pins the diagnostic content of plan
// execution errors: the failing point's index and its [start,end)
// offsets must appear, so a bad plan is debuggable from the message
// alone.
func TestPlanErrorsNamePoint(t *testing.T) {
	p := phasedProgram(t, 5)

	// Overlapping points: rejected up front, naming point 1's offsets.
	overlap := &sampling.Plan{
		Benchmark:  "pipephase",
		Method:     "handmade",
		TotalInsts: 1 << 30,
		Points: []sampling.Point{
			{Start: 500, End: 600, Weight: 0.5},
			{Start: 550, End: 700, Weight: 0.5},
		},
	}
	_, err := ExecutePlan(p, overlap, config.BaseA(), ExecOptions{})
	if err == nil || !strings.Contains(err.Error(), "point 1") || !strings.Contains(err.Error(), "550") {
		t.Errorf("overlap error %q does not name the point and offset", err)
	}

	// A point past the program's actual halt: the plan validates (the
	// declared TotalInsts is inflated) but the detailed window comes up
	// short, and the error must identify which point and range.
	m := emu.New(p, 0)
	total, err := m.RunToCompletion(1 << 30)
	if err != nil {
		t.Fatal(err)
	}
	short := &sampling.Plan{
		Benchmark:  "pipephase",
		Method:     "handmade",
		TotalInsts: total + 10_000,
		Points: []sampling.Point{
			{Start: total - 100, End: total + 500, Weight: 1},
		},
	}
	_, err = ExecutePlan(p, short, config.BaseA(), ExecOptions{})
	if err == nil {
		t.Fatal("plan past program end unexpectedly succeeded")
	}
	for _, want := range []string{"point 0", "simulated", "want 600"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("short-simulation error %q missing %q", err, want)
		}
	}
}

func TestMeasuredRatesDegenerateError(t *testing.T) {
	err := degenerateProbeErr("toybench", 4096, 17, 3*time.Microsecond, 0, 5*time.Microsecond)
	for _, want := range []string{"toybench", "4096", "functional 17 insts in 3µs", "detailed 0 insts in 5µs"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("degenerate-probe error %q missing %q", err, want)
		}
	}
}

// TestChunkCostModelSharedWarm pins the scheduler's cost model. A point
// that shares its predecessor's warm start costs only the warming it
// adds to the stream; a chunk that starts at it pays the warm prefix
// it inherits as start-up, so start-up plus cost is always what the
// point would cost replayed alone from its warm start.
func TestChunkCostModelSharedWarm(t *testing.T) {
	plan := &sampling.Plan{Benchmark: "t", Method: "m", TotalInsts: 4000, Points: []sampling.Point{
		{Start: 1000, End: 1100, Weight: 0.5},
		{Start: 1500, End: 1600, Weight: 0.25},
		{Start: 3000, End: 3100, Weight: 0.25},
	}}
	// Every point: lead 200 + 100 measured + tail 50 in detail.
	const detail = detailCostFactor * 350
	cases := []struct {
		warmup      uint64
		warmInc     []uint64
		cost, start []float64
	}{
		// Unbounded: all warm from 0. Increments are the gaps between
		// one run-ahead end and the next lead-in: 800, 150, 1150.
		{math.MaxUint64, []uint64{800, 150, 1150},
			[]float64{warmCostFactor*800 + detail, warmCostFactor*150 + detail, warmCostFactor*1150 + detail},
			[]float64{0, warmCostFactor * (1300 - 150), warmCostFactor * (2800 - 1150)}},
		// 500: every warm start differs, each point warms 500 alone.
		{500, []uint64{500, 500, 500},
			[]float64{300 + warmCostFactor*500 + detail, warmCostFactor*500 + detail, 650 + warmCostFactor*500 + detail},
			[]float64{300, 800, 2300}},
	}
	for _, c := range cases {
		tasks, err := planTasks(plan, ExecOptions{Warmup: c.warmup, DetailLeadIn: 200, RunAhead: 50})
		if err != nil {
			t.Fatal(err)
		}
		for i, task := range tasks {
			ptLen := plan.Points[i].Len()
			if task.warmInc != c.warmInc[i] {
				t.Errorf("warmup %d point %d: warmInc %d, want %d", c.warmup, i, task.warmInc, c.warmInc[i])
			}
			if got := taskCost(task, ptLen); got != c.cost[i] {
				t.Errorf("warmup %d point %d: cost %v, want %v", c.warmup, i, got, c.cost[i])
			}
			if got := chunkStartCost(task, false); got != c.start[i] {
				t.Errorf("warmup %d point %d: start-up %v, want %v", c.warmup, i, got, c.start[i])
			}
			if got, want := chunkStartCost(task, true), c.start[i]-float64(task.warmStart)+ckptRestoreCost; got != want {
				t.Errorf("warmup %d point %d: checkpoint-backed start-up %v, want %v", c.warmup, i, got, want)
			}
			alone := float64(task.warmStart) + warmCostFactor*float64(task.warm) + detail
			if got := chunkStartCost(task, false) + taskCost(task, ptLen) - float64(task.skip); got != alone {
				t.Errorf("warmup %d point %d: chunk start-up + cost %v, want the lone replay cost %v", c.warmup, i, got, alone)
			}
		}
	}
}

// TestMustRewind pins the rewind predicate: a point opening a new warm
// stream behind its predecessor's run-ahead end happens only under a
// finite warmup longer than some point spacing. A chunk machine asked
// to move backwards without a set to restore from is an error.
func TestMustRewind(t *testing.T) {
	planAt := func(starts ...uint64) *sampling.Plan {
		plan := &sampling.Plan{Benchmark: "t", Method: "m", TotalInsts: 1 << 20}
		for _, s := range starts {
			plan.Points = append(plan.Points, sampling.Point{Start: s, End: s + 1000, Weight: 1 / float64(len(starts))})
		}
		return plan
	}
	near := planAt(200_000, 210_000, 220_000)
	spread := planAt(200_000, 400_000, 600_000)
	cases := []struct {
		name   string
		plan   *sampling.Plan
		warmup uint64
		want   bool
	}{
		{"unbounded", near, math.MaxUint64, false},
		{"no warmup", near, 0, false},
		{"64K close points", near, 1 << 16, true},
		{"64K spread points", spread, 1 << 16, false},
	}
	for _, c := range cases {
		tasks, err := planTasks(c.plan, ExecOptions{Warmup: c.warmup, DetailLeadIn: 512, RunAhead: 256})
		if err != nil {
			t.Fatal(err)
		}
		if got := mustRewind(c.plan, tasks); got != c.want {
			t.Errorf("%s: mustRewind = %v, want %v", c.name, got, c.want)
		}
	}

	p := phasedProgram(t, 10)
	m := emu.New(p, 0)
	if _, err := m.Run(100); err != nil {
		t.Fatal(err)
	}
	if _, err := positionAt(context.Background(), m, p, near, 1, 50, nil, nil); err == nil {
		t.Error("positioning a machine backwards without a checkpoint set succeeded")
	}
}
