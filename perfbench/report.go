package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// metricDef is one metric as BENCHMARK.json defines it.
type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// metricDefs are the metrics BENCHMARK.json lists: the end-to-end ones
// a user of the program sees, measured with tracing off, and the
// traced run's per-layer ones. Every workload reports every metric;
// README.md says what each means on each workload, and a layer a
// workload bypasses reports 0 there.
type metricDefs struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// loadMetricDefs reads the metric definitions from the BENCHMARK.json
// at path.
func loadMetricDefs(path string) (*metricDefs, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d metricDefs
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(d.EndToEnd) == 0 || len(d.PerLayer) == 0 {
		return nil, fmt.Errorf("%s lists no end_to_end or no per_layer metrics", path)
	}
	return &d, nil
}

// metricValue is one reported metric. Samples is printed on the
// human-readable line only; the JSON result carries value and unit.
type metricValue struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"-"`
}

// countRow is one exact, deterministic work count, recorded per
// (benchmark, method) so later claims can rest on it.
type countRow struct {
	Benchmark     string  `json:"benchmark"`
	Method        string  `json:"method"`
	TotalInsts    uint64  `json:"total_insts"`
	Points        int     `json:"points"`
	WarmedInsts   uint64  `json:"warmed_insts"`
	FFInsts       uint64  `json:"ff_insts"`
	DetailedInsts uint64  `json:"detailed_insts"`
	WorkAmp       float64 `json:"work_amp"`
	StatesNonzero int     `json:"states_nonzero"`
	PlanChunks    int     `json:"plan_chunks"`
	CkptSetBytes  int     `json:"ckpt_set_bytes"`
}

// report collects one run's metrics, output-check tally and counts.
type report struct {
	workload string
	traced   bool
	defs     *metricDefs
	metrics  map[string]*metricValue
	// attempted counts operations and output checks; failed counts
	// operations that errored and checks that did not hold.
	attempted, failed int
	counts            []countRow
	// notes are printed figures that no bound applies to: wall-clock
	// times and the host's steal share, which move with the load on
	// the host.
	notes []note
}

// note is one printed-only figure.
type note struct {
	name, unit string
	value      float64
	samples    int
}

func newReport(workload string, traced bool, defs *metricDefs) *report {
	r := &report{workload: workload, traced: traced, defs: defs, metrics: make(map[string]*metricValue)}
	if traced {
		for _, d := range defs.PerLayer {
			r.metrics[d.Name] = &metricValue{Unit: d.Unit}
		}
	}
	return r
}

func (r *report) lookupDef(name string) (metricDef, bool) {
	for _, defs := range [][]metricDef{r.defs.EndToEnd, r.defs.PerLayer} {
		for _, d := range defs {
			if d.Name == name {
				return d, true
			}
		}
	}
	return metricDef{}, false
}

// set records a metric measured over samples observations.
func (r *report) set(name string, v float64, samples int) {
	d, ok := r.lookupDef(name)
	if !ok {
		panic("perfbench: metric " + name + " is not in BENCHMARK.json")
	}
	r.metrics[name] = &metricValue{Value: v, Unit: d.Unit, Samples: samples}
}

// note records a figure that is printed on its own line but is not a
// metric of BENCHMARK.json.
func (r *report) note(name, unit string, v float64, samples int) {
	r.notes = append(r.notes, note{name, unit, v, samples})
}

// add accumulates into a per-layer metric.
func (r *report) add(name string, v float64) {
	m, ok := r.metrics[name]
	if !ok {
		r.set(name, 0, 0)
		m = r.metrics[name]
	}
	m.Value += v
	m.Samples++
}

// check tallies one output check and logs it when it fails.
func (r *report) check(ok bool, format string, args ...any) bool {
	r.attempted++
	if !ok {
		r.failed++
		fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
	}
	return ok
}

// logJob notes one finished job on standard error.
func logJob(n int, wall, cpu float64) {
	fmt.Fprintf(os.Stderr, "perfbench: job %d took %.3f s wall, %.3f s CPU\n", n, wall, cpu)
}

// op tallies one operation of the measured job.
func (r *report) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		fmt.Fprintln(os.Stderr, "perfbench: operation failed:", err)
	}
}

// print writes the human-readable metric lines, the provenance line and
// the final JSON result line.
func (r *report) print(w io.Writer, prov map[string]any) error {
	defs := r.defs.EndToEnd
	if r.traced {
		defs = r.defs.PerLayer
	}
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		m, ok := r.metrics[d.Name]
		if !ok {
			return fmt.Errorf("workload %s did not report %s", r.workload, d.Name)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("workload %s: %s is %v", r.workload, d.Name, m.Value)
		}
		fmt.Fprintf(w, "%-28s %16.6g %-8s n=%d\n", d.Name, m.Value, d.Unit, m.Samples)
		out[d.Name] = *m
	}
	failFrac := 0.0
	if r.attempted > 0 {
		failFrac = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "%-28s %16.6g %-8s n=%d\n", "fail_frac", failFrac, "ratio", r.attempted)
	if len(r.notes) > 0 {
		fmt.Fprintln(w, "# not bounded (wall clock and host load):")
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "%-28s %16.6g %-8s n=%d\n", n.name, n.value, n.unit, n.samples)
	}
	fmt.Fprintln(w, "# provenance", jsonLine(prov))
	if r.attempted < 1 {
		return fmt.Errorf("workload %s attempted nothing", r.workload)
	}
	_, err := fmt.Fprintln(w, jsonLine(map[string]any{
		"correct":   r.failed == 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   out,
	}))
	return err
}

// Sample statistics.

// quantile returns the q-quantile of xs by linear interpolation
// between order statistics (0 for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
