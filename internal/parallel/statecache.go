package parallel

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"sync"

	"mlpa/internal/emu"
	"mlpa/internal/obs"
	"mlpa/internal/prog"
)

// StateCache caches functional-machine architectural states at
// instruction boundaries of one program, so concurrent simulation
// points fast-forwarding past the same prefix share the work instead
// of redoing it. Entries are serialized checkpoints (zero words
// elided), created single-flight: when several workers ask for the
// same instruction position at once, exactly one executes the
// fast-forward and the rest wait for its checkpoint.
//
// The cache is keyed by instruction count alone. A machine's
// architectural state at instruction N is a pure function of (program,
// memory size, N) — it does not depend on the microarchitectural
// configuration the caller will simulate the point under — so one
// cache serves every cpu.Config, which is what lets Table II's config
// A and B sweeps reuse each other's fast-forwards.
//
// A build for position N starts from the nearest already-completed
// entry at or below N (falling back to the initial state), so a plan's
// sorted points naturally chain: each point's worker extends the
// deepest prefix any earlier worker has published.
type StateCache struct {
	p        *prog.Program
	memWords int64

	// chunk bounds the instructions executed between context-
	// cancellation checks during a build.
	chunk uint64

	// Metrics, when non-nil, receives counter parallel.state_cache.hits
	// (waits on an existing entry), counter parallel.state_cache.misses
	// (builds), counter parallel.state_cache.ff_insts (instructions
	// actually fast-forwarded by builds) and gauge
	// parallel.state_cache.bytes (serialized footprint). Builds also
	// add their count to pipeline.ff_insts, the executed fast-forward
	// total of the plan executions the cache serves.
	metrics *obs.Registry

	mu      sync.Mutex
	entries map[uint64]*stateEntry
	keys    []uint64 // sorted positions with an entry (ready or in flight)
	bytes   int64
}

type stateEntry struct {
	pos   uint64
	done  chan struct{}
	state []byte
	err   error
}

func (e *stateEntry) ready() bool {
	select {
	case <-e.done:
		return true
	default:
		return false
	}
}

// defaultChunk keeps cancellation latency of a build in the
// low-millisecond range at interpreter speed.
const defaultChunk = 1 << 20

// NewStateCache creates an empty cache for p. memWords, if positive,
// fixes the data-memory size of the machines the cache materializes
// (the same value callers would pass emu.New); reg may be nil.
func NewStateCache(p *prog.Program, memWords int64, reg *obs.Registry) *StateCache {
	return &StateCache{
		p:        p,
		memWords: memWords,
		chunk:    defaultChunk,
		metrics:  reg,
		entries:  make(map[uint64]*stateEntry),
	}
}

// MachineAt returns an independent machine positioned exactly at
// instruction pos (committed-instruction count), materialized from the
// cache. The machine is the caller's to mutate. Position 0 is the
// initial state. An error is returned if the program halts before pos
// or ctx is cancelled while fast-forwarding.
func (c *StateCache) MachineAt(ctx context.Context, pos uint64) (*emu.Machine, error) {
	if pos == 0 {
		return emu.New(c.p, c.memWords), nil
	}
	c.mu.Lock()
	if e, ok := c.entries[pos]; ok {
		c.mu.Unlock()
		c.metrics.Counter("parallel.state_cache.hits").Inc()
		select {
		case <-e.done:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if e.err != nil {
			return nil, e.err
		}
		return c.restore(e.state)
	}
	e := &stateEntry{pos: pos, done: make(chan struct{})}
	c.entries[pos] = e
	c.insertKey(pos)
	base := c.nearestReadyBelowLocked(pos)
	c.mu.Unlock()
	c.metrics.Counter("parallel.state_cache.misses").Inc()

	m, err := c.build(ctx, base, pos)
	if err != nil {
		e.err = err
		close(e.done)
		// A cancelled or failed build must not poison the position for
		// future callers (a retry with a live context should succeed):
		// drop the entry.
		c.mu.Lock()
		delete(c.entries, pos)
		c.removeKey(pos)
		c.mu.Unlock()
		return nil, err
	}
	var buf bytes.Buffer
	if err := m.SaveCheckpoint(&buf); err != nil {
		e.err = err
		close(e.done)
		return nil, err
	}
	e.state = buf.Bytes()
	close(e.done)
	c.mu.Lock()
	c.bytes += int64(len(e.state))
	c.metrics.Gauge("parallel.state_cache.bytes").Set(float64(c.bytes))
	c.mu.Unlock()
	return m, nil
}

// build fast-forwards from the base entry (nil = initial state) to pos.
func (c *StateCache) build(ctx context.Context, base *stateEntry, pos uint64) (*emu.Machine, error) {
	var m *emu.Machine
	if base != nil && base.err == nil {
		var err error
		if m, err = c.restore(base.state); err != nil {
			return nil, err
		}
	} else {
		m = emu.New(c.p, c.memWords)
	}
	var ffed uint64
	for m.Insts < pos {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		step := pos - m.Insts
		if step > c.chunk {
			step = c.chunk
		}
		n, err := m.Run(step)
		ffed += n
		if err != nil {
			return nil, fmt.Errorf("parallel: fast-forward to instruction %d of %s: %w", pos, c.p.Name, err)
		}
		if n < step && m.Halted {
			return nil, fmt.Errorf("parallel: %s halted at instruction %d before reaching %d", c.p.Name, m.Insts, pos)
		}
	}
	c.metrics.Counter("parallel.state_cache.ff_insts").Add(int64(ffed))
	c.metrics.Counter("pipeline.ff_insts").Add(int64(ffed))
	return m, nil
}

func (c *StateCache) restore(state []byte) (*emu.Machine, error) {
	m := emu.New(c.p, c.memWords)
	if err := m.LoadCheckpoint(bytes.NewReader(state)); err != nil {
		return nil, fmt.Errorf("parallel: restore cached state: %w", err)
	}
	return m, nil
}

// nearestReadyBelowLocked returns the deepest completed entry at or
// below pos, or nil. Caller holds mu.
func (c *StateCache) nearestReadyBelowLocked(pos uint64) *stateEntry {
	i := sort.Search(len(c.keys), func(i int) bool { return c.keys[i] > pos })
	for i--; i >= 0; i-- {
		if e := c.entries[c.keys[i]]; e != nil && e.ready() && e.err == nil {
			return e
		}
	}
	return nil
}

func (c *StateCache) insertKey(pos uint64) {
	i := sort.Search(len(c.keys), func(i int) bool { return c.keys[i] >= pos })
	c.keys = append(c.keys, 0)
	copy(c.keys[i+1:], c.keys[i:])
	c.keys[i] = pos
}

func (c *StateCache) removeKey(pos uint64) {
	i := sort.Search(len(c.keys), func(i int) bool { return c.keys[i] >= pos })
	if i < len(c.keys) && c.keys[i] == pos {
		c.keys = append(c.keys[:i], c.keys[i+1:]...)
	}
}

// Program returns the program this cache materializes states for.
func (c *StateCache) Program() *prog.Program { return c.p }

// Bytes returns the serialized footprint of all completed entries.
func (c *StateCache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Len returns the number of cached (or in-flight) positions.
func (c *StateCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
