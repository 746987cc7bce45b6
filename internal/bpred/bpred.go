// Package bpred implements the branch predictors of the detailed
// simulator: bimodal, gshare (2-level), and the combined predictor
// with a meta-chooser that Table I configures ("Combined, 8K BHT
// entries"), plus a branch target buffer and return-address stack.
package bpred

import (
	"fmt"
	"slices"
)

// Outcome is a 2-bit saturating counter.
type counter uint8

func (c counter) taken() bool { return c >= 2 }

func (c counter) update(taken bool) counter {
	if taken {
		if c < 3 {
			return c + 1
		}
		return c
	}
	if c > 0 {
		return c - 1
	}
	return c
}

// DirPredictor predicts conditional-branch direction.
type DirPredictor interface {
	// Predict returns the predicted direction for the branch at pc.
	Predict(pc int64) bool
	// Update trains the predictor with the resolved direction.
	Update(pc int64, taken bool)
	// Name identifies the predictor.
	Name() string
	// clone returns an independent deep copy (see Unit.Clone).
	clone() DirPredictor
}

// Bimodal is a PC-indexed table of 2-bit counters.
type Bimodal struct {
	table []counter
	mask  int64
}

// NewBimodal creates a bimodal predictor with entries counters
// (rounded up to a power of two). Counters initialize weakly taken,
// matching SimpleScalar.
func NewBimodal(entries int) *Bimodal {
	n := 1
	for n < entries {
		n <<= 1
	}
	t := make([]counter, n)
	for i := range t {
		t[i] = 2
	}
	return &Bimodal{table: t, mask: int64(n - 1)}
}

// Name implements DirPredictor.
func (b *Bimodal) Name() string { return "bimodal" }

// Predict implements DirPredictor.
func (b *Bimodal) Predict(pc int64) bool { return b.table[pc&b.mask].taken() }

// Update implements DirPredictor.
func (b *Bimodal) Update(pc int64, taken bool) {
	i := pc & b.mask
	b.table[i] = b.table[i].update(taken)
}

func (b *Bimodal) clone() DirPredictor {
	c := *b
	c.table = slices.Clone(b.table)
	return &c
}

// GShare is a global-history predictor XOR-indexing a counter table.
type GShare struct {
	table   []counter
	mask    int64
	history int64
	bits    uint
}

// NewGShare creates a gshare predictor with entries counters and
// historyBits of global history.
func NewGShare(entries int, historyBits uint) *GShare {
	n := 1
	for n < entries {
		n <<= 1
	}
	t := make([]counter, n)
	for i := range t {
		t[i] = 2
	}
	return &GShare{table: t, mask: int64(n - 1), bits: historyBits}
}

// Name implements DirPredictor.
func (g *GShare) Name() string { return "gshare" }

func (g *GShare) index(pc int64) int64 {
	return (pc ^ g.history) & g.mask
}

// Predict implements DirPredictor.
func (g *GShare) Predict(pc int64) bool { return g.table[g.index(pc)].taken() }

// Update implements DirPredictor.
func (g *GShare) Update(pc int64, taken bool) {
	i := g.index(pc)
	g.table[i] = g.table[i].update(taken)
	g.history <<= 1
	if taken {
		g.history |= 1
	}
	g.history &= (1 << g.bits) - 1
}

func (g *GShare) clone() DirPredictor {
	c := *g
	c.table = slices.Clone(g.table)
	return &c
}

// Combined is SimpleScalar's "comb" predictor: bimodal and gshare in
// parallel with a bimodal meta-chooser selecting between them per
// branch.
type Combined struct {
	bim  *Bimodal
	gsh  *GShare
	meta []counter // >=2 chooses gshare
	mask int64
}

// NewCombined creates a combined predictor; entries sizes all three
// tables (Table I: 8K BHT entries).
func NewCombined(entries int) *Combined {
	n := 1
	for n < entries {
		n <<= 1
	}
	meta := make([]counter, n)
	for i := range meta {
		meta[i] = 2
	}
	return &Combined{
		bim:  NewBimodal(n),
		gsh:  NewGShare(n, 12),
		meta: meta,
		mask: int64(n - 1),
	}
}

// Name implements DirPredictor.
func (c *Combined) Name() string { return "combined" }

// Predict implements DirPredictor.
func (c *Combined) Predict(pc int64) bool {
	if c.meta[pc&c.mask].taken() {
		return c.gsh.Predict(pc)
	}
	return c.bim.Predict(pc)
}

// Update implements DirPredictor: trains both components and moves the
// chooser toward whichever component was right.
func (c *Combined) Update(pc int64, taken bool) {
	bp := c.bim.Predict(pc)
	gp := c.gsh.Predict(pc)
	if bp != gp {
		i := pc & c.mask
		c.meta[i] = c.meta[i].update(gp == taken)
	}
	c.bim.Update(pc, taken)
	c.gsh.Update(pc, taken)
}

func (c *Combined) clone() DirPredictor {
	d := *c
	d.bim = c.bim.clone().(*Bimodal)
	d.gsh = c.gsh.clone().(*GShare)
	d.meta = slices.Clone(c.meta)
	return &d
}

// Static predictors for ablation baselines.

// Static always predicts a fixed direction.
type Static struct{ Taken bool }

// Name implements DirPredictor.
func (s Static) Name() string {
	if s.Taken {
		return "always-taken"
	}
	return "always-not-taken"
}

// Predict implements DirPredictor.
func (s Static) Predict(int64) bool { return s.Taken }

// Update implements DirPredictor (no state).
func (s Static) Update(int64, bool) {}

func (s Static) clone() DirPredictor { return s }

// BTB is a direct-mapped, tagged branch target buffer.
type BTB struct {
	tags    []int64
	targets []int64
	mask    int64
}

// NewBTB creates a BTB with the given entry count (rounded to a power
// of two).
func NewBTB(entries int) *BTB {
	n := 1
	for n < entries {
		n <<= 1
	}
	tags := make([]int64, n)
	for i := range tags {
		tags[i] = -1
	}
	return &BTB{tags: tags, targets: make([]int64, n), mask: int64(n - 1)}
}

// Lookup returns the predicted target for the branch at pc, if present.
func (b *BTB) Lookup(pc int64) (target int64, ok bool) {
	i := pc & b.mask
	if b.tags[i] == pc {
		return b.targets[i], true
	}
	return 0, false
}

// Update records the resolved target of a taken branch.
func (b *BTB) Update(pc, target int64) {
	i := pc & b.mask
	b.tags[i] = pc
	b.targets[i] = target
}

// RAS is a return-address stack for call/return prediction.
type RAS struct {
	stack []int64
	top   int
	size  int
}

// NewRAS creates a return-address stack with the given depth.
func NewRAS(depth int) *RAS {
	if depth < 1 {
		depth = 1
	}
	return &RAS{stack: make([]int64, depth), size: depth}
}

// Push records a return address at a call.
func (r *RAS) Push(addr int64) {
	r.stack[r.top%r.size] = addr
	r.top++
}

// Pop predicts the target of a return. ok is false when the stack is
// empty.
func (r *RAS) Pop() (addr int64, ok bool) {
	if r.top == 0 {
		return 0, false
	}
	r.top--
	return r.stack[r.top%r.size], true
}

// Stats tracks prediction accuracy.
type Stats struct {
	Lookups      uint64
	DirMisses    uint64 // wrong direction
	TargetMisses uint64 // right direction, wrong/unknown target
}

// Mispredicts returns total mispredictions.
func (s Stats) Mispredicts() uint64 { return s.DirMisses + s.TargetMisses }

// Accuracy returns the fraction of correct predictions.
func (s Stats) Accuracy() float64 {
	if s.Lookups == 0 {
		return 1
	}
	return 1 - float64(s.Mispredicts())/float64(s.Lookups)
}

// Unit bundles direction predictor, BTB and RAS into the front-end
// branch unit used by the detailed simulator.
type Unit struct {
	Dir     DirPredictor
	BTB     *BTB
	RAS     *RAS
	perfect bool
	stats   Stats
}

// Kind selects a direction predictor family for NewUnit.
type Kind string

// Supported predictor kinds.
const (
	KindCombined Kind = "combined"
	KindBimodal  Kind = "bimodal"
	KindGShare   Kind = "gshare"
	KindPAg      Kind = "pag"
	KindTaken    Kind = "taken"
	KindNotTaken Kind = "nottaken"
	// KindPerfect is the oracle: every prediction is correct. It
	// bounds how much of a workload's CPI is branch-induced.
	KindPerfect Kind = "perfect"
)

// NewUnit builds a branch unit with bhtEntries direction entries, a
// 512-entry BTB and an 8-deep RAS.
func NewUnit(kind Kind, bhtEntries int) (*Unit, error) {
	var dir DirPredictor
	switch kind {
	case KindCombined:
		dir = NewCombined(bhtEntries)
	case KindBimodal:
		dir = NewBimodal(bhtEntries)
	case KindGShare:
		dir = NewGShare(bhtEntries, 12)
	case KindPAg:
		dir = NewPAg(bhtEntries, 10)
	case KindTaken:
		dir = Static{Taken: true}
	case KindNotTaken:
		dir = Static{Taken: false}
	case KindPerfect:
		dir = Static{Taken: true} // unused; the unit short-circuits
	default:
		return nil, fmt.Errorf("bpred: unknown predictor kind %q", kind)
	}
	return &Unit{Dir: dir, BTB: NewBTB(512), RAS: NewRAS(8), perfect: kind == KindPerfect}, nil
}

// Stats returns prediction statistics.
func (u *Unit) Stats() Stats { return u.stats }

// ResetStats zeroes statistics without clearing predictor state.
func (u *Unit) ResetStats() { u.stats = Stats{} }

// Clone returns an independent deep copy of the unit: direction
// predictor tables and histories, BTB, RAS and statistics. The copy
// predicts any branch sequence exactly as the original would.
func (u *Unit) Clone() *Unit {
	c := *u
	c.Dir = u.Dir.clone()
	btb := *u.BTB
	btb.tags, btb.targets = slices.Clone(u.BTB.tags), slices.Clone(u.BTB.targets)
	c.BTB = &btb
	ras := *u.RAS
	ras.stack = slices.Clone(u.RAS.stack)
	c.RAS = &ras
	return &c
}

// PredictCond predicts a conditional branch at pc and immediately
// trains with the resolved outcome (execution-driven simulation knows
// the truth at fetch time; the timing model charges the misprediction
// penalty separately). Returns whether the prediction was correct.
func (u *Unit) PredictCond(pc int64, taken bool, target int64) bool {
	u.stats.Lookups++
	if u.perfect {
		return true
	}
	pred := u.Dir.Predict(pc)
	u.Dir.Update(pc, taken)
	correct := pred == taken
	if correct && taken {
		// Direction right; target must come from the BTB.
		if t, ok := u.BTB.Lookup(pc); !ok || t != target {
			u.stats.TargetMisses++
			correct = false
		}
	}
	if !correct {
		if pred != taken {
			u.stats.DirMisses++
		}
	}
	if taken {
		u.BTB.Update(pc, target)
	}
	return correct
}

// PredictJump handles unconditional direct jumps (always taken; target
// from BTB on first sight).
func (u *Unit) PredictJump(pc, target int64) bool {
	u.stats.Lookups++
	if u.perfect {
		return true
	}
	t, ok := u.BTB.Lookup(pc)
	correct := ok && t == target
	if !correct {
		u.stats.TargetMisses++
	}
	u.BTB.Update(pc, target)
	return correct
}

// PredictCall records the return address and predicts like a jump.
func (u *Unit) PredictCall(pc, target, returnAddr int64) bool {
	u.RAS.Push(returnAddr)
	return u.PredictJump(pc, target)
}

// PredictReturn predicts an indirect jump via the RAS.
func (u *Unit) PredictReturn(pc, target int64) bool {
	u.stats.Lookups++
	if u.perfect {
		return true
	}
	t, ok := u.RAS.Pop()
	correct := ok && t == target
	if !correct {
		u.stats.TargetMisses++
	}
	return correct
}

// PAg is a two-level local-history predictor: a per-branch history
// table feeds a shared pattern table of 2-bit counters (the "PAg"
// organization of Yeh & Patt).
type PAg struct {
	histories []uint16 // per-branch local histories
	histMask  int64
	bits      uint
	table     []counter
	tableMask int64
}

// NewPAg creates a local-history predictor with the given number of
// per-branch history entries and history bits; the pattern table has
// 2^historyBits counters.
func NewPAg(entries int, historyBits uint) *PAg {
	n := 1
	for n < entries {
		n <<= 1
	}
	if historyBits == 0 || historyBits > 16 {
		historyBits = 10
	}
	t := make([]counter, 1<<historyBits)
	for i := range t {
		t[i] = 2
	}
	return &PAg{
		histories: make([]uint16, n),
		histMask:  int64(n - 1),
		bits:      historyBits,
		table:     t,
		tableMask: int64(len(t) - 1),
	}
}

// Name implements DirPredictor.
func (p *PAg) Name() string { return "pag" }

// Predict implements DirPredictor.
func (p *PAg) Predict(pc int64) bool {
	h := int64(p.histories[pc&p.histMask]) & p.tableMask
	return p.table[h].taken()
}

// Update implements DirPredictor.
func (p *PAg) Update(pc int64, taken bool) {
	i := pc & p.histMask
	h := int64(p.histories[i]) & p.tableMask
	p.table[h] = p.table[h].update(taken)
	p.histories[i] <<= 1
	if taken {
		p.histories[i] |= 1
	}
	p.histories[i] &= uint16(1<<p.bits - 1)
}

func (p *PAg) clone() DirPredictor {
	c := *p
	c.histories = slices.Clone(p.histories)
	c.table = slices.Clone(p.table)
	return &c
}
