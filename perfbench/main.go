// Command perfbench is the repository's benchmark. It runs one named
// workload with a seed, measures it for a given number of seconds and
// prints the end-to-end metrics (untraced run) or the per-layer
// metrics (traced run), followed by one JSON result line:
//
//	perfbench --workload table2|ckpt-sweep|serve-mix --seed N --seconds S --trace 0|1
//
// Every per-layer number comes from timing public calls into the
// program's packages from here; see README.md for the workloads and
// the metric → layer → workload map.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// runOpts is what every workload receives.
type runOpts struct {
	seed    int64
	seconds time.Duration
	// tr is nil on untraced runs.
	tr *tracer
}

// benchmarkFile defines the metrics, relative to the checkout root the
// benchmark runs from.
const benchmarkFile = "BENCHMARK.json"

type workloadFunc func(o runOpts, r *report) error

var workloads = []struct {
	name string
	run  workloadFunc
}{
	{"table2", runTable2},
	{"ckpt-sweep", runCkptSweep},
	{"serve-mix", runServeMix},
}

func main() {
	if err := mainErr(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr() error {
	workload := flag.String("workload", "", "workload to run: table2, ckpt-sweep or serve-mix")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are made from")
	seconds := flag.Int("seconds", 10, "how long one run measures")
	trace := flag.Int("trace", 0, "1 runs the traced variant and prints per-layer metrics")
	traceDir := flag.String("trace-dir", filepath.Join(".bench_build", "traces"), "directory the traced run writes its spans and exact counts to")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	if *seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1, got %d", *seconds)
	}
	var run workloadFunc
	for _, w := range workloads {
		if w.name == *workload {
			run = w.run
		}
	}
	if run == nil {
		return fmt.Errorf("unknown --workload %q (want table2, ckpt-sweep or serve-mix)", *workload)
	}

	defs, err := loadMetricDefs(benchmarkFile)
	if err != nil {
		return err
	}

	o := runOpts{seed: *seed, seconds: time.Duration(*seconds) * time.Second}
	if *trace == 1 {
		o.tr = newTracer()
	}
	r := newReport(*workload, *trace == 1, defs)
	if err := run(o, r); err != nil {
		return err
	}

	prov := provenance(*workload, *seed, *seconds, *trace)
	if o.tr != nil {
		if err := writeTrace(*traceDir, prov, r, o.tr.snapshot()); err != nil {
			return err
		}
	}
	return r.print(os.Stdout, prov)
}

// minJobs is how many jobs an untraced run times at least, so each
// job-level median is taken over several jobs and one slow job does
// not move it.
const minJobs = 3

// jobLog collects the timed jobs of one run.
type jobLog struct {
	start              time.Time
	steal0, total0     float64
	walls, cpus, peaks []float64
}

func newJobLog() *jobLog {
	l := &jobLog{start: time.Now()}
	l.steal0, l.total0 = hostSteal()
	return l
}

// more reports whether the run should time another job. The traced
// run times one untraced job (the reference for its layer composition
// and the base of the tracing overhead); an untraced run times at
// least minJobs and then goes on while a job of the median length
// still ends within --seconds.
func (l *jobLog) more(o runOpts) bool {
	switch {
	case len(l.walls) == 0:
		return true
	case o.tr != nil:
		return false
	case len(l.walls) < minJobs:
		return true
	}
	return time.Since(l.start)+time.Duration(median(l.walls)*float64(time.Second)) <= o.seconds
}

// add records one finished job's wall and CPU seconds and the peak
// resident set it reached.
func (l *jobLog) add(wall, cpu float64) {
	l.walls = append(l.walls, wall)
	l.cpus = append(l.cpus, cpu)
	l.peaks = append(l.peaks, peakRSSMB())
	logJob(len(l.walls), wall, cpu)
}

// report sets job_cpu_s and peak_rss_mb and notes the median job wall
// and the share of the run's time the host took from the CPUs.
func (l *jobLog) report(r *report) {
	r.set("job_cpu_s", median(l.cpus), len(l.cpus))
	r.set("peak_rss_mb", median(l.peaks), len(l.peaks))
	r.note("job_s", "s", median(l.walls), len(l.walls))
	if steal, total := hostSteal(); total > l.total0 {
		r.note("host_steal_frac", "ratio", (steal-l.steal0)/(total-l.total0), 1)
	}
}

// cpuSeconds is the CPU time the process has used so far, user and
// system, summed over its threads. On a shared virtual machine the host
// takes the CPUs away for a share of the wall time that moves from
// minute to minute (steal); CPU time leaves that time out, so it
// measures the program's work rather than the host's load.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("perfbench: getrusage: " + err.Error())
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// stopwatch times one interval in wall and in CPU time.
type stopwatch struct {
	wall time.Time
	cpu  float64
}

func startWatch() stopwatch { return stopwatch{time.Now(), cpuSeconds()} }

// elapsed returns the wall and CPU seconds since the watch started.
func (w stopwatch) elapsed() (wall, cpu float64) {
	return time.Since(w.wall).Seconds(), cpuSeconds() - w.cpu
}

// hostSteal reads the jiffies the host has taken from this machine's
// CPUs (steal) and all jiffies so far, from the first line of
// /proc/stat (user, nice, system, idle, iowait, irq, softirq, steal;
// the guest fields after them are already counted in user and nice);
// both are 0 where it cannot be read.
func hostSteal() (steal, total float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 {
		return 0, 0
	}
	for _, f := range fields[1:9] {
		v, _ := strconv.ParseFloat(f, 64)
		total += v
	}
	steal, _ = strconv.ParseFloat(fields[8], 64)
	return steal, total
}

// settle collects the heap, returns free memory to the OS and restarts
// the process's peak-resident-set count (VmHWM) from its current
// resident set, so each timed job starts from the state a fresh process
// would and peak_rss_mb measures that job alone. Where the kernel
// refuses the reset, the peak keeps counting from process start.
func settle() {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: peak RSS not reset:", err)
	}
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// provenance identifies what produced a result.
func provenance(workload string, seed int64, seconds, trace int) map[string]any {
	rev := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				rev = s.Value
			}
		}
	}
	return map[string]any{
		"workload":   workload,
		"seed":       seed,
		"seconds":    seconds,
		"trace":      trace,
		"go_version": runtime.Version(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"revision":   rev,
	}
}

// writeTrace writes the traced run's spans, exact counts and per-layer
// metrics as one JSON document.
func writeTrace(dir string, prov map[string]any, r *report, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	doc := map[string]any{
		"provenance": prov,
		"metrics":    r.metrics,
		"counts":     r.counts,
		"spans":      spans,
	}
	b, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", r.workload, prov["seed"]))
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	fmt.Fprintln(os.Stderr, "perfbench: spans and counts written to", path)
	return nil
}

// jsonLine renders v as one line of JSON.
func jsonLine(v any) string {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		return fmt.Sprintf("%q", err.Error())
	}
	return strings.TrimSpace(b.String())
}
