package pipeline

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"mlpa/internal/bench"
	"mlpa/internal/ckpt"
	"mlpa/internal/config"
	"mlpa/internal/cpu"
	"mlpa/internal/obs"
	"mlpa/internal/simpoint"
)

// ckptExecOpts is the warm policy the checkpoint differential tests
// run under — finite warmup, so checkpoint-backed execution actually
// replaces fast-forward work (Warmup=MaxUint64 would pin every warm
// start to instruction zero).
func ckptExecOpts(workers int) ExecOptions {
	return ExecOptions{Warmup: 2000, DetailLeadIn: 256, RunAhead: 128, Workers: workers}
}

// TestCheckpointBackedBitIdentical is the acceptance harness for
// checkpoint-backed execution: for every suite benchmark under both
// Table I configurations at 1 and 4 workers, ExecutePlan restoring
// from a BuildCheckpointSet set must produce bit-identical estimates,
// point records and journal streams to from-scratch execution
// (wall-clock fields excepted). Run with -race in CI.
func TestCheckpointBackedBitIdentical(t *testing.T) {
	configs := []cpu.Config{config.BaseA(), config.SensitivityB()}
	for _, spec := range bench.Suite() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			p := spec.MustProgram(bench.SizeTiny)
			plan, _, _, err := simpoint.Select(p, simpoint.Config{
				IntervalLen: bench.FineInterval(bench.SizeTiny), Kmax: 8, Seed: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			set, err := BuildCheckpointSet(p, plan, ckptExecOpts(1))
			if err != nil {
				t.Fatal(err)
			}
			for _, cfg := range configs {
				for _, workers := range []int{1, 4} {
					runOne := func(set *ckpt.Set) (*Estimate, []map[string]any) {
						var buf bytes.Buffer
						sink := obs.NewJSONLSink(&buf)
						opts := ckptExecOpts(workers)
						opts.Obs = obs.New(sink)
						opts.Checkpoints = set
						est, err := ExecutePlan(p, plan, cfg, opts)
						if err != nil {
							t.Fatalf("config %s workers %d ckpt=%v: %v", cfg.Name, workers, set != nil, err)
						}
						if err := sink.Err(); err != nil {
							t.Fatal(err)
						}
						return stripWall(est), journalSkeleton(t, &buf)
					}
					wantEst, wantJournal := runOne(nil)
					gotEst, gotJournal := runOne(set)
					if !reflect.DeepEqual(gotEst, wantEst) {
						t.Errorf("config %s workers %d: checkpoint-backed estimate differs from scratch:\n got %s\nwant %s",
							cfg.Name, workers, dumpEstimate(gotEst), dumpEstimate(wantEst))
					}
					if !reflect.DeepEqual(gotJournal, wantJournal) {
						t.Errorf("config %s workers %d: checkpoint-backed journal stream differs from scratch",
							cfg.Name, workers)
					}
				}
			}
		})
	}
}

// TestCheckpointBackedFromDisk: a set that has round-tripped through
// the on-disk layout (Save → Load, program reassembled from the
// embedded image) still drives bit-identical execution.
func TestCheckpointBackedFromDisk(t *testing.T) {
	spec := bench.Suite()[0]
	p := spec.MustProgram(bench.SizeTiny)
	plan, _, _, err := simpoint.Select(p, simpoint.Config{
		IntervalLen: bench.FineInterval(bench.SizeTiny), Kmax: 6, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	set, err := BuildCheckpointSet(p, plan, ckptExecOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := set.Save(dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := ckpt.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.BaseA()
	want, err := ExecutePlan(p, plan, cfg, ckptExecOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	// Execute against the loaded set's own reassembled program and plan
	// — the CLI path, where no in-memory originals exist.
	opts := ckptExecOpts(2)
	opts.Checkpoints = loaded
	got, err := ExecutePlan(loaded.Program, loaded.Plan, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stripWall(got), stripWall(want)) {
		t.Errorf("disk-loaded checkpoint execution differs from scratch:\n got %s\nwant %s",
			dumpEstimate(stripWall(got)), dumpEstimate(stripWall(want)))
	}
}

// TestExecutePlanRejectsMismatchedSet: a set built for a different
// warm policy, plan or program, or missing a point's state, fails
// ExecutePlan up front with
// ckpt.ErrMismatch instead of producing wrong estimates.
func TestExecutePlanRejectsMismatchedSet(t *testing.T) {
	suite := bench.Suite()
	p := suite[0].MustProgram(bench.SizeTiny)
	other := suite[1].MustProgram(bench.SizeTiny)
	plan, _, _, err := simpoint.Select(p, simpoint.Config{
		IntervalLen: bench.FineInterval(bench.SizeTiny), Kmax: 6, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	set, err := BuildCheckpointSet(p, plan, ckptExecOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.BaseA()

	opts := ckptExecOpts(1)
	opts.Warmup = 4000 // different policy than the set was built for
	opts.Checkpoints = set
	if _, err := ExecutePlan(p, plan, cfg, opts); !errors.Is(err, ckpt.ErrMismatch) {
		t.Errorf("policy mismatch: got %v, want ckpt.ErrMismatch", err)
	}

	otherPlan, _, _, err := simpoint.Select(p, simpoint.Config{
		IntervalLen: bench.FineInterval(bench.SizeTiny), Kmax: 3, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	opts = ckptExecOpts(1)
	opts.Checkpoints = set
	if _, err := ExecutePlan(p, otherPlan, cfg, opts); !errors.Is(err, ckpt.ErrMismatch) {
		t.Errorf("plan mismatch: got %v, want ckpt.ErrMismatch", err)
	}

	if _, err := ExecutePlan(other, plan, cfg, opts); !errors.Is(err, ckpt.ErrMismatch) {
		t.Errorf("program mismatch: got %v, want ckpt.ErrMismatch", err)
	}

	short := *set
	short.States = set.States[:len(set.States)-1]
	opts.Checkpoints = &short
	if _, err := ExecutePlan(p, plan, cfg, opts); !errors.Is(err, ckpt.ErrMismatch) {
		t.Errorf("one state short: got %v, want ckpt.ErrMismatch", err)
	}
}

// TestCheckpointedExecutionMatchesDirect: a checkpoint set built under
// the bounded warm policy holds one state per plan point, and
// ExecutePlan restoring from it reproduces direct execution under the
// same policy exactly, under both Table I configurations from the one
// set.
func TestCheckpointedExecutionMatchesDirect(t *testing.T) {
	spec, err := bench.ByName("crafty")
	if err != nil {
		t.Fatal(err)
	}
	p := spec.MustProgram(bench.SizeTiny)
	plan, _, _, err := simpoint.Select(p, simpoint.Config{
		IntervalLen: bench.FineInterval(bench.SizeTiny), Kmax: 10, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	set, err := BuildCheckpointSet(p, plan, PolicyOptions(BoundedPolicy))
	if err != nil {
		t.Fatal(err)
	}
	if len(set.States) != len(plan.Points) {
		t.Fatalf("checkpoints = %d, points = %d", len(set.States), len(plan.Points))
	}
	for _, cfg := range []cpu.Config{config.BaseA(), config.SensitivityB()} {
		direct, err := ExecutePlan(p, plan, cfg, PolicyOptions(BoundedPolicy))
		if err != nil {
			t.Fatal(err)
		}
		opts := PolicyOptions(set.Policy)
		opts.Checkpoints = set
		fromCk, err := ExecutePlan(p, set.Plan, cfg, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(stripWall(fromCk), stripWall(direct)) {
			t.Errorf("config %s: checkpointed estimate differs from direct:\n got %s\nwant %s",
				cfg.Name, dumpEstimate(stripWall(fromCk)), dumpEstimate(stripWall(direct)))
		}
	}
}

// TestExecuteFromCheckpointsMismatch: a set one state short of its
// plan is rejected with ckpt.ErrMismatch rather than executed.
func TestExecuteFromCheckpointsMismatch(t *testing.T) {
	p := phasedProgram(t, 10)
	plan, _, _, err := simpoint.Select(p, simpoint.Config{IntervalLen: 2000, Kmax: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	set, err := BuildCheckpointSet(p, plan, PolicyOptions(BoundedPolicy))
	if err != nil {
		t.Fatal(err)
	}
	set.States = set.States[:len(set.States)-1]
	opts := PolicyOptions(set.Policy)
	opts.Checkpoints = set
	if _, err := ExecutePlan(p, plan, config.BaseA(), opts); !errors.Is(err, ckpt.ErrMismatch) {
		t.Errorf("mismatched checkpoint count: got %v, want ckpt.ErrMismatch", err)
	}
}
