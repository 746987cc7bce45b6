package cpu

import (
	"fmt"
	"time"

	"mlpa/internal/bpred"
	"mlpa/internal/cache"
	"mlpa/internal/emu"
	"mlpa/internal/isa"
	"mlpa/internal/obs"
)

// robEntry is one in-flight instruction.
type robEntry struct {
	seq     uint64
	class   isa.Class
	latency int

	// Dependencies: up to two producing ROB entries, identified by
	// (index, seq) so retired producers are recognized as satisfied.
	dep     [2]int32
	depSeq  [2]uint64
	numDeps int8

	issued  bool
	doneAt  uint64 // cycle result is available; valid once issued
	isLoad  bool
	isStore bool
	hasDst  bool
	dst     isa.Reg
	addr    int64 // block-aligned memory address for loads/stores

	mispredict bool // fetch is stalled until this branch resolves
}

// Sim is one detailed simulation context: pipeline state plus memory
// system and branch unit. State persists across Run calls so a full
// program can be simulated in consecutive regions with warm
// structures; use New for a cold context per sampled simulation point.
type Sim struct {
	cfg  Config
	hier *cache.Hierarchy
	bu   *bpred.Unit

	rob      []robEntry
	robHead  int
	robTail  int
	robCount int

	// pending holds ROB indices of not-yet-issued instructions in
	// program order (the scheduler's wakeup list).
	pending []int32

	// memq holds ROB indices of in-flight memory operations in
	// program order (the load/store queue); memqHead is its logical
	// front.
	memq     []int32
	memqHead int
	lsqCount int

	// regProducer[r] is the ROB index of the latest in-flight producer
	// of register r, or -1; regSeq[r] its sequence number.
	regProducer [64]int32
	regSeq      [64]uint64

	cycle   uint64
	nextSeq uint64

	// Occupancy and flush telemetry, accumulated over the context
	// lifetime (two integer adds per cycle; RunWindow differences them
	// per window when Metrics is set).
	robOccSum uint64
	lsqOccSum uint64
	flushes   uint64

	// Metrics, if non-nil, receives per-window telemetry from
	// RunWindow: gauge cpu.kips, gauges cpu.rob_occupancy /
	// cpu.lsq_occupancy (average entries per cycle) and counter
	// cpu.flushes (branch-mispredict pipeline redirects).
	Metrics *obs.Registry

	// Front-end state.
	fetchReadyAt   uint64 // cycle fetch may resume (I-miss or redirect)
	fetchBlockSeq  uint64 // seq of unresolved mispredicted branch, 0 if none
	lastFetchBlock int64

	committed uint64

	// feed, when non-nil, is the warm stream this context was forked
	// from: every instruction fetched here is also applied to it
	// exactly as Warm would apply it (see Fork).
	feed *Sim
}

// New creates a cold detailed-simulation context.
func New(cfg Config) (*Sim, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	hier, err := cache.NewHierarchy(cfg.Caches)
	if err != nil {
		return nil, err
	}
	bu, err := bpred.NewUnit(cfg.Predictor, cfg.BHTEntries)
	if err != nil {
		return nil, err
	}
	return newSim(cfg, hier, bu, -1), nil
}

// newSim assembles a context with an empty pipeline around the given
// memory system and branch unit.
func newSim(cfg Config, hier *cache.Hierarchy, bu *bpred.Unit, lastFetchBlock int64) *Sim {
	s := &Sim{
		cfg:            cfg,
		hier:           hier,
		bu:             bu,
		rob:            make([]robEntry, cfg.ROBSize),
		lastFetchBlock: lastFetchBlock,
		nextSeq:        1,
	}
	for i := range s.regProducer {
		s.regProducer[i] = -1
	}
	return s
}

// Fork returns a detailed context with an empty pipeline whose caches,
// branch unit and last fetch block are copies of s's warm state, with
// statistics reset as Warm leaves them — exactly the context New plus
// Warm over s's history would produce. Every instruction the fork
// fetches is also applied to s as Warm would apply it, so s stays one
// continuous functional warm stream across the fork's detailed
// windows: after the fork runs a window, s is in the state Warm over
// the same instructions would have left it. The fork's own warming
// (Warm, WarmCode) does not reach s.
func (s *Sim) Fork() *Sim {
	f := newSim(s.cfg, s.hier.Clone(), s.bu.Clone(), s.lastFetchBlock)
	f.resetStats()
	f.feed = s
	return f
}

// MustNew is New, panicking on configuration errors.
func MustNew(cfg Config) *Sim {
	s, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Config returns the machine configuration.
func (s *Sim) Config() Config { return s.cfg }

// Cycles returns the total cycles simulated by this context.
func (s *Sim) Cycles() uint64 { return s.cycle }

// Flushes returns the total branch-mispredict pipeline redirects this
// context has performed.
func (s *Sim) Flushes() uint64 { return s.flushes }

// watchdogLimit is the number of consecutive cycles without a commit
// after which Run reports a model deadlock (a bug, not a workload
// property).
const watchdogLimit = 1 << 20

// Run simulates up to maxInsts committed instructions (0 = until the
// program halts) starting from m's current state, and returns the
// timing result for exactly this region. The machine's architectural
// state advances with the simulation.
func (s *Sim) Run(m *emu.Machine, maxInsts uint64) (Result, error) {
	return s.RunWithLeadIn(m, 0, maxInsts)
}

// snapshot captures the counters needed to delimit a measured region.
type snapshot struct {
	cycles uint64
	insts  uint64
	il1    cache.Stats
	dl1    cache.Stats
	l2     cache.Stats
	branch bpred.Stats
}

func (s *Sim) snap() snapshot {
	return snapshot{
		cycles: s.cycle,
		insts:  s.committed,
		il1:    s.hier.IL1.Stats(),
		dl1:    s.hier.DL1.Stats(),
		l2:     s.hier.L2.Stats(),
		branch: s.bu.Stats(),
	}
}

// RunWithLeadIn simulates lead+maxInsts committed instructions as one
// continuous pipeline run (maxInsts 0 = until halt) but reports the
// timing result only for the portion after the first lead
// instructions. The pipeline stays filled across the lead boundary, so
// the measured region is free of start-up ramp (detailed warmup).
func (s *Sim) RunWithLeadIn(m *emu.Machine, lead, maxInsts uint64) (Result, error) {
	return s.RunWindow(m, lead, maxInsts, 0)
}

// RunWindow simulates lead+maxInsts+tail committed instructions as one
// continuous pipeline run but reports the timing result only for the
// maxInsts instructions after the lead (maxInsts 0 = until halt, in
// which case tail is ignored). The lead removes start-up ramp; the
// tail (run-ahead) lets the out-of-order window overlap the measured
// region's trailing latencies with successor work, exactly as a
// continuous simulation would, instead of charging the full drain to
// the measured region.
func (s *Sim) RunWindow(m *emu.Machine, lead, maxInsts, tail uint64) (Result, error) {
	startInsts := s.committed
	mid := s.snap()
	midTaken := lead == 0
	var end snapshot
	endTaken := false
	endAt := uint64(0) // commit count at which the measured region ends
	total := uint64(0)
	if maxInsts > 0 {
		endAt = lead + maxInsts
		total = lead + maxInsts + tail
	}

	var t0 time.Time
	var startCycles, startRobOcc, startLsqOcc, startFlushes uint64
	if s.Metrics != nil {
		t0 = time.Now() //mlpalint:allow time-now (metrics wall clock, not simulated state)
		startCycles = s.cycle
		startRobOcc, startLsqOcc, startFlushes = s.robOccSum, s.lsqOccSum, s.flushes
	}

	fetchDone := false // stop fetching: budget reached or program halted
	var sinceCommit uint64

	for {
		if total > 0 && s.committed-startInsts >= total {
			break
		}
		if fetchDone && s.robCount == 0 {
			break
		}
		s.cycle++
		s.robOccSum += uint64(s.robCount)
		s.lsqOccSum += uint64(s.lsqCount)

		// Commit stage.
		commits := 0
		for commits < s.cfg.CommitWidth && s.robCount > 0 {
			e := &s.rob[s.robHead]
			if !e.issued || e.doneAt > s.cycle {
				break
			}
			if e.isStore {
				// Stores write the cache at commit; latency is hidden
				// by the store buffer.
				s.hier.DL1.Access(e.addr, true)
			}
			if e.isLoad || e.isStore {
				s.lsqCount--
				// Memory ops commit in order, so this is memq's front.
				s.memqHead++
				if s.memqHead >= len(s.memq) {
					s.memq = s.memq[:0]
					s.memqHead = 0
				} else if s.memqHead > 64 && s.memqHead*2 > len(s.memq) {
					s.memq = append(s.memq[:0], s.memq[s.memqHead:]...)
					s.memqHead = 0
				}
			}
			s.retireRegs(s.robHead)
			s.robHead = (s.robHead + 1) % s.cfg.ROBSize
			s.robCount--
			s.committed++
			commits++
			if !midTaken && s.committed-startInsts == lead {
				mid = s.snap()
				midTaken = true
			}
			if !endTaken && endAt > 0 && s.committed-startInsts == endAt {
				end = s.snap()
				endTaken = true
			}
			if total > 0 && s.committed-startInsts >= total {
				break
			}
		}
		if commits > 0 {
			sinceCommit = 0
		} else {
			sinceCommit++
			if sinceCommit > watchdogLimit {
				return Result{}, fmt.Errorf("cpu: no commit in %d cycles (model deadlock) at cycle %d", watchdogLimit, s.cycle)
			}
		}

		// Issue stage: scan the oldest SchedWindow un-issued entries.
		s.issue()

		// Fetch/dispatch stage.
		if !fetchDone {
			halted, err := s.fetch(m, total, startInsts)
			if err != nil {
				return Result{}, err
			}
			if halted {
				fetchDone = true
			}
			if total > 0 && s.fetched()-startInsts >= total {
				fetchDone = true
			}
		}
	}

	if !midTaken {
		// The program halted before reaching the lead count: nothing
		// measured.
		mid = s.snap()
	}
	if !endTaken {
		// Run-to-halt, or the program ended inside the window.
		end = s.snap()
	}
	res := Result{
		Insts:  end.insts - mid.insts,
		Cycles: end.cycles - mid.cycles,
		IL1:    diffStats(end.il1, mid.il1),
		DL1:    diffStats(end.dl1, mid.dl1),
		L2:     diffStats(end.l2, mid.l2),
		Branch: bpred.Stats{
			Lookups:      end.branch.Lookups - mid.branch.Lookups,
			DirMisses:    end.branch.DirMisses - mid.branch.DirMisses,
			TargetMisses: end.branch.TargetMisses - mid.branch.TargetMisses,
		},
	}
	res.L1 = cache.Stats{
		Accesses:   res.IL1.Accesses + res.DL1.Accesses,
		Misses:     res.IL1.Misses + res.DL1.Misses,
		Writebacks: res.IL1.Writebacks + res.DL1.Writebacks,
	}
	if s.Metrics != nil {
		windowInsts := s.committed - startInsts
		if secs := time.Since(t0).Seconds(); secs > 0 && windowInsts > 0 {
			s.Metrics.Gauge("cpu.kips").Set(float64(windowInsts) / secs / 1e3)
		}
		if cycles := s.cycle - startCycles; cycles > 0 {
			s.Metrics.Gauge("cpu.rob_occupancy").Set(float64(s.robOccSum-startRobOcc) / float64(cycles))
			s.Metrics.Gauge("cpu.lsq_occupancy").Set(float64(s.lsqOccSum-startLsqOcc) / float64(cycles))
		}
		s.Metrics.Counter("cpu.flushes").Add(int64(s.flushes - startFlushes))
		s.Metrics.Counter("cpu.window_insts").Add(int64(windowInsts))
	}
	return res, nil
}

func diffStats(b, a cache.Stats) cache.Stats {
	return cache.Stats{
		Accesses:   b.Accesses - a.Accesses,
		Misses:     b.Misses - a.Misses,
		Writebacks: b.Writebacks - a.Writebacks,
	}
}

// fetched returns the count of instructions dispatched into the ROB
// over the context lifetime.
func (s *Sim) fetched() uint64 { return s.committed + uint64(s.robCount) }

// retireRegs clears the producer-tracking entry if it still points at
// the retiring ROB slot.
func (s *Sim) retireRegs(idx int) {
	e := &s.rob[idx]
	if e.hasDst && s.regProducer[e.dst] == int32(idx) && s.regSeq[e.dst] == e.seq {
		s.regProducer[e.dst] = -1
	}
}

// issue selects ready instructions oldest-first, bounded by issue
// width, functional-unit pools and the scheduler window. It walks the
// pending list (un-issued instructions in program order), compacting
// out the entries it issues.
func (s *Sim) issue() {
	var fuUsed [isa.NumClasses]int
	issued := 0
	scanned := 0
	w := 0
	for r := 0; r < len(s.pending); r++ {
		idx := s.pending[r]
		if issued >= s.cfg.IssueWidth || scanned >= s.cfg.SchedWindow {
			// Out of issue bandwidth or window: keep the rest.
			w += copy(s.pending[w:], s.pending[r:])
			break
		}
		e := &s.rob[idx]
		scanned++
		if !s.tryIssue(e, int(idx), &fuUsed) {
			s.pending[w] = idx
			w++
			continue
		}
		issued++
	}
	s.pending = s.pending[:w]
}

// tryIssue attempts to issue one entry this cycle.
func (s *Sim) tryIssue(e *robEntry, idx int, fuUsed *[isa.NumClasses]int) bool {
	if !s.depsReady(e) {
		return false
	}
	// Functional-unit availability. Branches use integer ALUs.
	cl := e.class
	switch cl {
	case isa.ClassBranch, isa.ClassNop:
		cl = isa.ClassIntALU
	case isa.ClassStore:
		cl = isa.ClassLoad // shared load/store units
	}
	if fuUsed[cl] >= s.cfg.FUs[cl] {
		return false
	}
	var fwd bool
	if e.isLoad {
		ok, forwarded := s.loadMayIssue(idx)
		if !ok {
			return false
		}
		fwd = forwarded
	}
	fuUsed[cl]++
	e.issued = true
	lat := e.latency
	if e.isLoad {
		if fwd {
			lat++ // store-to-load forwarding
		} else {
			lat += s.hier.DL1.Access(e.addr, false)
		}
	}
	e.doneAt = s.cycle + uint64(lat)
	if e.mispredict {
		// Redirect: fetch resumes after resolution plus refill.
		resume := e.doneAt + uint64(s.cfg.MispredictPenalty)
		if resume > s.fetchReadyAt {
			s.fetchReadyAt = resume
		}
		if s.fetchBlockSeq == e.seq {
			s.fetchBlockSeq = 0
		}
	}
	return true
}

// depsReady reports whether all register dependencies of e are
// satisfied this cycle.
func (s *Sim) depsReady(e *robEntry) bool {
	for d := int8(0); d < e.numDeps; d++ {
		p := &s.rob[e.dep[d]]
		if p.seq != e.depSeq[d] {
			continue // producer retired; value in the register file
		}
		if !p.issued || p.doneAt > s.cycle {
			return false
		}
	}
	return true
}

// loadMayIssue enforces load/store ordering by walking the in-flight
// memory-operation queue up to the load: the load waits until every
// older store to the same block has completed (ok=false); when the
// nearest such store has completed, its data forwards (fwd=true).
func (s *Sim) loadMayIssue(loadIdx int) (ok, fwd bool) {
	e := &s.rob[loadIdx]
	for q := s.memqHead; q < len(s.memq); q++ {
		idx := s.memq[q]
		if int(idx) == loadIdx {
			break
		}
		p := &s.rob[idx]
		if p.isStore && p.addr == e.addr {
			if !p.issued || p.doneAt > s.cycle {
				return false, false
			}
			fwd = true
		}
	}
	return true, fwd
}

const blockMask = ^int64(0) << 5 // 32-byte blocks for LSQ matching

// Warm functionally executes insts instructions on m while updating
// this context's caches and branch predictor, without advancing the
// timing model. It implements SMARTS-style functional warming, an
// extension over the paper's cold-start fast-forwarding, used by the
// warmup ablation.
func (s *Sim) Warm(m *emu.Machine, insts uint64) error {
	return s.warm(m, insts, true)
}

// WarmCode is Warm restricted to the instruction side — instruction
// cache and branch predictor only, leaving data-cache state untouched.
// It supports dry-run self-warming of a simulation point with no
// preceding execution context (a cloned machine replays the region):
// code and predictor state converge to steady state after one replay,
// while data behaviour must not be pre-touched or the point's
// compulsory data misses would vanish.
func (s *Sim) WarmCode(m *emu.Machine, insts uint64) error {
	return s.warm(m, insts, false)
}

// WarmMeasured functionally executes up to insts instructions driving
// the caches and branch predictor, and returns the accumulated
// statistics with zero cycles — the sim-cache / sim-bpred equivalent
// of the SimpleScalar toolchain.
func (s *Sim) WarmMeasured(m *emu.Machine, insts uint64) (Result, error) {
	before := s.snap()
	startInsts := m.Insts
	if err := s.warmRun(m, insts, true); err != nil {
		return Result{}, err
	}
	after := s.snap()
	res := Result{
		Insts: m.Insts - startInsts,
		IL1:   diffStats(after.il1, before.il1),
		DL1:   diffStats(after.dl1, before.dl1),
		L2:    diffStats(after.l2, before.l2),
		Branch: bpred.Stats{
			Lookups:      after.branch.Lookups - before.branch.Lookups,
			DirMisses:    after.branch.DirMisses - before.branch.DirMisses,
			TargetMisses: after.branch.TargetMisses - before.branch.TargetMisses,
		},
	}
	res.L1 = cache.Stats{
		Accesses:   res.IL1.Accesses + res.DL1.Accesses,
		Misses:     res.IL1.Misses + res.DL1.Misses,
		Writebacks: res.IL1.Writebacks + res.DL1.Writebacks,
	}
	return res, nil
}

func (s *Sim) warm(m *emu.Machine, insts uint64, data bool) error {
	if err := s.warmRun(m, insts, data); err != nil {
		return err
	}
	// Warmup accesses must not pollute the measured statistics.
	s.resetStats()
	return nil
}

// resetStats zeroes the statistics RunWindow reports, keeping state.
func (s *Sim) resetStats() {
	s.hier.IL1.ResetStats()
	s.hier.DL1.ResetStats()
	s.hier.L2.ResetStats()
	s.bu.ResetStats()
}

func (s *Sim) warmRun(m *emu.Machine, insts uint64, data bool) error {
	for i := uint64(0); i < insts && !m.Halted; i++ {
		info, err := m.Step()
		if err != nil {
			return fmt.Errorf("cpu: warm step: %w", err)
		}
		s.warmInst(info, data)
	}
	return nil
}

// warmInst applies one executed instruction to the caches and branch
// predictor without timing.
func (s *Sim) warmInst(info emu.StepInfo, data bool) {
	blk := (info.PC * isa.InstBytes) & blockMask
	if blk != s.lastFetchBlock {
		s.hier.IL1.Access(info.PC*isa.InstBytes, false)
		s.lastFetchBlock = blk
	}
	op := info.Inst.Op
	if data && op.IsMem() {
		s.hier.DL1.Access(info.MemAddr&blockMask, op.IsStore())
	}
	if op.IsBranch() {
		switch op {
		case isa.OpJal:
			s.bu.PredictCall(info.PC, info.NextPC, info.PC+1)
		case isa.OpJr:
			s.bu.PredictReturn(info.PC, info.NextPC)
		case isa.OpJmp:
			s.bu.PredictJump(info.PC, info.NextPC)
		default:
			s.bu.PredictCond(info.PC, info.Taken, info.NextPC)
		}
	}
}

// fetch dispatches up to FetchWidth instructions from the emulator
// into the ROB, honoring I-cache and branch-redirect stalls. Returns
// true when the program has halted.
func (s *Sim) fetch(m *emu.Machine, maxInsts, startInsts uint64) (bool, error) {
	if s.cycle < s.fetchReadyAt || s.fetchBlockSeq != 0 {
		return m.Halted, nil
	}
	return s.fetchRun(m, maxInsts, startInsts)
}

func (s *Sim) fetchRun(m *emu.Machine, maxInsts, startInsts uint64) (bool, error) {
	for f := 0; f < s.cfg.FetchWidth; f++ {
		if m.Halted {
			return true, nil
		}
		if s.robCount >= s.cfg.ROBSize {
			return false, nil
		}
		if maxInsts > 0 && s.fetched()-startInsts >= maxInsts {
			return false, nil
		}
		// Stall before consuming a memory instruction when the LSQ is
		// full (peek at the next opcode without stepping).
		if m.Prog.Code[m.PC].Op.IsMem() && s.lsqCount >= s.cfg.LSQSize {
			return false, nil
		}
		// Instruction cache: one access per block transition.
		blk := (m.PC * isa.InstBytes) & blockMask
		if blk != s.lastFetchBlock {
			lat := s.hier.IL1.Access(m.PC*isa.InstBytes, false)
			s.lastFetchBlock = blk
			if lat > 1 {
				s.fetchReadyAt = s.cycle + uint64(lat)
				return false, nil
			}
		}
		info, err := m.Step()
		if err != nil {
			return false, fmt.Errorf("cpu: functional step: %w", err)
		}
		if s.feed != nil {
			s.feed.warmInst(info, true)
		}
		op := info.Inst.Op
		isMem := op.IsMem()

		idx := s.robTail
		e := &s.rob[idx]
		*e = robEntry{
			seq:     s.nextSeq,
			class:   op.Class(),
			latency: op.Latency(),
		}
		s.nextSeq++

		// Register dependencies.
		var srcBuf [4]isa.Reg
		srcs := info.Inst.Sources(srcBuf[:0])
		for _, r := range srcs {
			if e.numDeps >= 2 {
				break
			}
			pi := s.regProducer[r]
			if pi >= 0 {
				e.dep[e.numDeps] = pi
				e.depSeq[e.numDeps] = s.regSeq[r]
				e.numDeps++
			}
		}
		if rd, ok := info.Inst.Dests(); ok {
			e.hasDst = true
			e.dst = rd
			s.regProducer[rd] = int32(idx)
			s.regSeq[rd] = e.seq
		}

		if isMem {
			e.addr = info.MemAddr & blockMask
			e.isLoad = op.IsLoad()
			e.isStore = op.IsStore()
			s.lsqCount++
			s.memq = append(s.memq, int32(idx))
		}
		s.pending = append(s.pending, int32(idx))

		stopFetch := false
		if op.IsBranch() {
			correct := true
			switch op {
			case isa.OpJal:
				correct = s.bu.PredictCall(info.PC, info.NextPC, info.PC+1)
			case isa.OpJr:
				correct = s.bu.PredictReturn(info.PC, info.NextPC)
			case isa.OpJmp:
				correct = s.bu.PredictJump(info.PC, info.NextPC)
			default:
				correct = s.bu.PredictCond(info.PC, info.Taken, info.NextPC)
			}
			if !correct {
				e.mispredict = true
				s.fetchBlockSeq = e.seq
				s.flushes++
				stopFetch = true
			} else if info.Taken {
				// One taken branch per fetch cycle.
				stopFetch = true
			}
		}
		if op == isa.OpHalt {
			stopFetch = true
		}

		s.robTail = (s.robTail + 1) % s.cfg.ROBSize
		s.robCount++

		if stopFetch {
			return m.Halted, nil
		}
	}
	return m.Halted, nil
}
