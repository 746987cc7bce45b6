package pipeline

import (
	"context"
	"fmt"

	"mlpa/internal/ckpt"
	"mlpa/internal/emu"
	"mlpa/internal/obs"
	"mlpa/internal/prog"
	"mlpa/internal/sampling"
	"mlpa/internal/staticanalysis"
)

// BoundedPolicy is the bounded warm policy: 64K instructions of
// functional warming and a 512-instruction detailed lead-in per point,
// no run-ahead. The warm window is finite so every point's warm start
// lies inside the program, which is what gives a checkpoint set
// fast-forward to skip; an unbounded window pins every warm start to
// instruction 0. The service executes every estimate under it, and
// `mlpa ckpt save` and mlpa.MakeCheckpoints bake it into their sets.
// Changing it changes the service's response bits and goldens.
var BoundedPolicy = ckpt.Policy{Warmup: 1 << 16, DetailLeadIn: 512}

// PolicyOptions returns execution options carrying warm policy pol and
// nothing else; callers add workers, context and observability.
func PolicyOptions(pol ckpt.Policy) ExecOptions {
	return ExecOptions{Warmup: pol.Warmup, DetailLeadIn: pol.DetailLeadIn, RunAhead: pol.RunAhead}
}

// ckptPolicy extracts the warm-policy fingerprint a checkpoint set is
// bound to from execution options (the inverse of PolicyOptions). Only
// the fields that move the warm starts participate: workers and
// observability never change what state a point needs.
func ckptPolicy(opts ExecOptions) ckpt.Policy {
	return ckpt.Policy{Warmup: opts.Warmup, DetailLeadIn: opts.DetailLeadIn, RunAhead: opts.RunAhead}
}

// BuildCheckpointSet runs one functional pass over the program and
// captures a portable checkpoint set for (p, plan, opts' warm policy):
// per plan point, the live-in-scrubbed architectural state and touched
// memory footprint at the point's warm start — the position
// ExecutePlan's scheduler materializes machines at. The pass costs one
// fast-forward to the last warm start; every subsequent
// ExecutePlan with ExecOptions.Checkpoints then restores points in
// O(checkpoint size) instead of re-paying fast-forward, and the
// resulting estimates are bit-identical to from-scratch execution.
func BuildCheckpointSet(p *prog.Program, plan *sampling.Plan, opts ExecOptions) (*ckpt.Set, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	if err := staticanalysis.Preflight(p); err != nil {
		return nil, fmt.Errorf("pipeline: preflight for %s/%s: %w", plan.Benchmark, plan.Method, err)
	}
	tasks, err := planTasks(plan, opts)
	if err != nil {
		return nil, err
	}
	ctx := opts.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	span := opts.Obs.StartSpan("pipeline.build_ckpt_set",
		obs.KV("benchmark", plan.Benchmark), obs.KV("method", plan.Method))
	defer span.End()

	m := emu.New(p, 0)
	m.TrackDirtyPages()
	set := &ckpt.Set{
		ProgramName: p.Name,
		ProgramHash: ckpt.ProgramHash(p),
		Assembly:    p.Disassemble(),
		DataSize:    p.DataSize,
		Plan:        plan,
		Policy:      ckptPolicy(opts),
		Program:     p,
	}
	for pi := range plan.Points {
		// Warm starts are nondecreasing (planTasks guarantees each
		// point's warm window begins at or after the previous point's),
		// so one forward pass visits every capture position in order.
		ws := tasks[pi].warmStart
		if m.Insts > ws {
			return nil, fmt.Errorf("pipeline: checkpoint pass for %s/%s overshot point %d: machine at %d, warm start %d",
				plan.Benchmark, plan.Method, pi, m.Insts, ws)
		}
		if m.Insts < ws {
			if err := fastForward(ctx, m, ws, opts.Obs.Metrics()); err != nil {
				return nil, fmt.Errorf("pipeline: checkpoint pass: %w", err)
			}
		}
		livein, err := boundaryLiveIn(m)
		if err != nil {
			return nil, fmt.Errorf("pipeline: checkpoint pass live-in at point %d: %w", pi, err)
		}
		st, err := ckpt.Capture(m, pi, livein)
		if err != nil {
			return nil, fmt.Errorf("pipeline: checkpoint pass capture at point %d: %w", pi, err)
		}
		set.States = append(set.States, st)
	}
	if rt := opts.Obs; rt != nil {
		rt.Metrics().Counter("pipeline.ckpt_states_built").Add(int64(len(set.States)))
		rt.Metrics().Gauge("pipeline.ckpt_set_bytes").Set(float64(set.ApproxBytes()))
	}
	return set, nil
}
