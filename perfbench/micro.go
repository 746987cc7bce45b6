package main

import (
	"fmt"
	"time"

	"mlpa/internal/bench"
	"mlpa/internal/ckpt"
	"mlpa/internal/config"
	"mlpa/internal/cpu"
	"mlpa/internal/emu"
	"mlpa/internal/prog"
	"mlpa/internal/simpoint"
)

// Per-round instruction budgets of the prefix micros, split evenly
// over the workload's programs, so one round takes a few tenths of a
// second whatever the program count.
const (
	warmBudget   = 4 << 20
	detailBudget = 1 << 20
	microRounds  = 3
)

// layerMicros measures each layer's rate on the workload's own
// programs (not synthetic kernels), so every layer has a rate beside
// its share of job_s. Each rate is the median over microRounds rounds.
// sets, when non-nil, supply the checkpoint states ckpt.restore_us
// restores.
func layerMicros(r *report, progs []*prog.Program, size bench.Size, sets []*ckpt.Set) error {
	lengths := make([]uint64, len(progs))
	var runRates, warmRates, detailRates, bbvRates, restores []float64
	for round := 0; round < microRounds; round++ {
		var insts uint64
		t0 := time.Now()
		for i, p := range progs {
			n, err := emu.New(p, 0).RunToCompletion(1 << 40)
			if err != nil {
				return fmt.Errorf("emu micro: %w", err)
			}
			lengths[i] = n
			insts += n
		}
		runRates = append(runRates, float64(insts)/time.Since(t0).Seconds()/1e6)

		rate, err := prefixRate(progs, lengths, warmBudget, func(s *cpu.Sim, m *emu.Machine, n uint64) error {
			return s.Warm(m, n)
		})
		if err != nil {
			return fmt.Errorf("warm micro: %w", err)
		}
		warmRates = append(warmRates, rate/1e6)

		rate, err = prefixRate(progs, lengths, detailBudget, func(s *cpu.Sim, m *emu.Machine, n uint64) error {
			_, err := s.Run(m, n)
			return err
		})
		if err != nil {
			return fmt.Errorf("detail micro: %w", err)
		}
		detailRates = append(detailRates, rate/1e3)

		insts = 0
		t0 = time.Now()
		for _, p := range progs {
			tr, err := simpoint.Profile(p, simpoint.Config{IntervalLen: bench.FineInterval(size), Seed: studySeed})
			if err != nil {
				return fmt.Errorf("bbv micro: %w", err)
			}
			for _, iv := range tr.Intervals {
				insts += iv.Len()
			}
		}
		bbvRates = append(bbvRates, float64(insts)/time.Since(t0).Seconds()/1e6)

		for _, set := range sets {
			m, err := set.States[0].NewMachine(set.Program)
			if err != nil {
				return fmt.Errorf("restore micro: %w", err)
			}
			for _, st := range set.States {
				t0 := time.Now()
				if err := st.RestoreInto(m); err != nil {
					return fmt.Errorf("restore micro: %w", err)
				}
				restores = append(restores, float64(time.Since(t0).Nanoseconds())/1e3)
			}
		}
	}
	r.set("emu.run_mips", median(runRates), microRounds)
	r.set("cpu.warm_mips", median(warmRates), microRounds)
	r.set("cpu.detail_kips", median(detailRates), microRounds)
	r.set("simpoint.bbv_mips", median(bbvRates), microRounds)
	r.set("ckpt.restore_us", median(restores), len(restores))
	return nil
}

// prefixRate drives fn over a prefix of every program (budget split
// evenly, capped at each program's length) on a fresh machine and
// config-A simulator, and returns instructions per second.
func prefixRate(progs []*prog.Program, lengths []uint64, budget uint64, fn func(*cpu.Sim, *emu.Machine, uint64) error) (float64, error) {
	per := budget / uint64(len(progs))
	var insts uint64
	var wall time.Duration
	for i, p := range progs {
		n := min(per, lengths[i])
		s, err := cpu.New(config.BaseA())
		if err != nil {
			return 0, err
		}
		m := emu.New(p, 0)
		t0 := time.Now()
		if err := fn(s, m, n); err != nil {
			return 0, err
		}
		wall += time.Since(t0)
		insts += n
	}
	return float64(insts) / wall.Seconds(), nil
}
