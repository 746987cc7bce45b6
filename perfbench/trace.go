package main

import (
	"sort"
	"sync"
	"time"
)

// span is one benchmark-side timing of a call into a layer of the
// program. Spans are recorded from outside the program, around public
// calls, so a span's self time is the time spent inside that layer.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Name   string `json:"name"`
	// Group is shared by every span of one benchmark/plan or one HTTP
	// request, so a reader can follow one unit of work.
	Group   string  `json:"group"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

// tracer keeps spans in memory until the run ends. A nil tracer
// records nothing, which is how untraced runs measure end-to-end
// metrics without tracing cost.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) since() float64 { return float64(time.Since(t.t0).Nanoseconds()) / 1e3 }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name, group string, parent int) int {
	if t == nil {
		return 0
	}
	now := t.since()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Group: group, StartUS: now})
	return len(t.spans)
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := t.since()
	t.mu.Lock()
	t.spans[id-1].EndUS = now
	t.mu.Unlock()
}

// do runs fn inside a span.
func (t *tracer) do(name, group string, parent int, fn func() error) error {
	id := t.begin(name, group, parent)
	err := fn()
	t.end(id)
	return err
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span name's summed self time in seconds: a
// span's duration minus the part of it that its children cover.
// Children of one span may overlap (parallel work), so their union is
// subtracted, never their sum.
func selfTimes(spans []span) map[string]float64 {
	children := make(map[int][][2]float64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]float64{s.StartUS, s.EndUS})
		}
	}
	out := make(map[string]float64)
	for _, s := range spans {
		covered := unionWithin(children[s.ID], s.StartUS, s.EndUS)
		out[s.Name] += (s.EndUS - s.StartUS - covered) / 1e6
	}
	return out
}

// unionWithin returns the length of the union of ivs clipped to
// [lo, hi].
func unionWithin(ivs [][2]float64, lo, hi float64) float64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	total, cur := 0.0, lo
	for _, iv := range ivs {
		a, b := iv[0], iv[1]
		if a < cur {
			a = cur
		}
		if b > hi {
			b = hi
		}
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}
