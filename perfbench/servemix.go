package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"time"

	"mlpa/internal/bench"
	"mlpa/internal/config"
	"mlpa/internal/cpu"
	"mlpa/internal/parallel"
	"mlpa/internal/pipeline"
	"mlpa/internal/prog"
	"mlpa/internal/serve"
)

// The serve-mix traffic: a closed loop of serveClients clients, each
// sending its next request only after the previous reply, over a
// seeded sequence of requests at size tiny. Every job sends the same
// set of distinct requests, so every seed does the same work:
//
//   - benchmark i of the suite gets method serveMethods[i%4], estimated
//     under config A and under config B (52 estimates); whichever comes
//     second is a config flip of the first, which reuses its plan's
//     checkpoint set;
//   - every other benchmark also gets a plan for the next method (13
//     plans), so fresh requests are 4 estimates to 1 plan;
//   - serveRepeats requests repeat an earlier request exactly: a cache
//     hit, or a coalesced wait while the first is still in flight.
//
// The seed picks the order, which config each benchmark starts with
// and which requests repeat.
const (
	serveClients = 2
	// serveRepeats makes repeats 43% of the requests (49 of 114), the
	// hit share measured on this traffic mix against the daemon.
	serveRepeats = 49
	// serveSetups is how many server start-ups setup_s is the median
	// of. A start-up takes well under a millisecond, so many cost
	// little and steady the median.
	serveSetups = 51
)

var serveMethods = []string{"coasts", "simpoint", "multilevel", "smarts"}

// serveReq is one request of the sequence.
type serveReq struct {
	endpoint string
	bench    string
	method   string
	config   string // "" for plans
}

func (q serveReq) body() []byte {
	m := map[string]string{"benchmark": q.bench, "method": q.method, "size": "tiny"}
	if q.config != "" {
		m["config"] = q.config
	}
	b, _ := json.Marshal(m) // a map of strings always marshals
	return b
}

func (q serveReq) key() string { return q.endpoint + " " + string(q.body()) }

// serveSequence makes the seeded request sequence.
func serveSequence(seed int64) []serveReq {
	rng := rand.New(rand.NewSource(seed))
	var seq, flips []serveReq
	for i, b := range bench.Names() {
		first, second := "A", "B"
		if rng.Intn(2) == 1 {
			first, second = second, first
		}
		m := serveMethods[i%len(serveMethods)]
		seq = append(seq, serveReq{endpoint: "estimate", bench: b, method: m, config: first})
		flips = append(flips, serveReq{endpoint: "estimate", bench: b, method: m, config: second})
		if i%2 == 0 {
			seq = append(seq, serveReq{endpoint: "plan", bench: b, method: serveMethods[(i+1)%len(serveMethods)]})
		}
	}
	seq = shuffled(rng, seq)
	// Each flip lands somewhere after the estimate it flips.
	for _, f := range flips {
		at := 0
		for at < len(seq) && (seq[at].bench != f.bench || seq[at].endpoint != "estimate") {
			at++
		}
		seq = insertAt(seq, at+1+rng.Intn(len(seq)-at), f)
	}
	for k := 0; k < serveRepeats; k++ {
		at := 1 + rng.Intn(len(seq))
		seq = insertAt(seq, at, seq[rng.Intn(at)])
	}
	return seq
}

func insertAt(seq []serveReq, at int, q serveReq) []serveReq {
	seq = append(seq, serveReq{})
	copy(seq[at+1:], seq[at:])
	seq[at] = q
	return seq
}

// serveReply is what one request got back.
type serveReply struct {
	status int
	ms     float64
	cache  string // X-Mlpa-Cache
	ckpt   string // X-Mlpa-Ckpt
	body   []byte
	err    error
}

// startServer starts a fresh in-process daemon and waits until it
// answers /healthz; it also returns the CPU seconds that took.
func startServer(client *http.Client) (*serve.Server, string, float64, error) {
	sw := startWatch()
	srv := serve.New(serve.Options{})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		return nil, "", 0, err
	}
	base := "http://" + srv.Addr().String()
	resp, err := client.Get(base + "/healthz")
	if err == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz status %d", resp.StatusCode)
		}
	}
	_, cpu := sw.elapsed()
	if err != nil {
		stopServer(srv)
		return nil, "", 0, fmt.Errorf("serve-mix set-up: %w", err)
	}
	return srv, base, cpu, nil
}

func stopServer(srv *serve.Server) error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	return srv.Shutdown(ctx)
}

// serveJob sends seq through a fresh server from serveClients
// closed-loop clients and returns the replies in sequence order, with
// the wall and CPU seconds from the first request to the last reply.
func serveJob(o runOpts, client *http.Client, seq []serveReq) (replies []serveReply, wall, cpu float64, err error) {
	srv, base, _, err := startServer(client)
	if err != nil {
		return nil, 0, 0, err
	}
	root := o.tr.begin("job", "serve-mix", 0)
	replies = make([]serveReply, len(seq))
	sw := startWatch()
	// Each client claims the next request only after its reply, so
	// ForEach's workers are the closed loop's clients.
	err = parallel.ForEach(context.Background(), serveClients, len(seq), func(_ context.Context, i int) error {
		id := o.tr.begin("serve.request", "req-"+strconv.Itoa(i), root)
		replies[i] = post(client, base, seq[i])
		o.tr.end(id)
		return nil
	})
	wall, cpu = sw.elapsed()
	o.tr.end(root)
	if stopErr := stopServer(srv); err == nil && stopErr != nil {
		err = fmt.Errorf("serve-mix shutdown: %w", stopErr)
	}
	if err != nil {
		return nil, 0, 0, err
	}
	return replies, wall, cpu, nil
}

func post(client *http.Client, base string, q serveReq) serveReply {
	t0 := time.Now()
	resp, err := client.Post(base+"/v1/"+q.endpoint, "application/json", bytes.NewReader(q.body()))
	if err != nil {
		return serveReply{err: err}
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return serveReply{
		status: resp.StatusCode,
		ms:     float64(time.Since(t0).Nanoseconds()) / 1e6,
		cache:  resp.Header.Get("X-Mlpa-Cache"),
		ckpt:   resp.Header.Get("X-Mlpa-Ckpt"),
		body:   body,
		err:    err,
	}
}

// runServeMix times the daemon path: request sequences through fresh
// in-process servers.
func runServeMix(o runOpts, r *report) error {
	client := &http.Client{Timeout: 2 * time.Minute}
	defer client.CloseIdleConnections()
	seq := serveSequence(o.seed)

	var setups []float64
	for len(setups) < serveSetups {
		time.Sleep(setupPause)
		srv, _, setup, err := startServer(client)
		if err != nil {
			return err
		}
		if err := stopServer(srv); err != nil {
			return err
		}
		setups = append(setups, setup)
	}

	var lats []float64
	var replies []serveReply
	jobs := newJobLog()
	for jobs.more(o) {
		settle()
		var wall, cpu float64
		var err error
		replies, wall, cpu, err = serveJob(runOpts{seed: o.seed}, client, seq)
		if err != nil {
			return err
		}
		jobs.add(wall, cpu)
		for _, rep := range replies {
			var err error
			if rep.err != nil || rep.status != http.StatusOK {
				err = fmt.Errorf("status %d: %v %s", rep.status, rep.err, rep.body)
			} else {
				lats = append(lats, rep.ms)
			}
			r.op(err)
		}
		checkServe(r, seq, replies)
	}
	r.set("setup_s", median(setups), len(setups))
	jobs.report(r)
	untraced := median(jobs.walls)
	r.note("throughput_rps", "1/s", float64(len(seq))/untraced, len(jobs.walls))
	r.note("latency_ms.p50", "ms", quantile(lats, 0.5), len(lats))
	r.note("latency_ms.p90", "ms", quantile(lats, 0.9), len(lats))
	progs, err := serveAccuracy(r, seq, replies)
	if err != nil {
		return err
	}
	if o.tr == nil {
		return nil
	}

	replies, wall, _, err := serveJob(o, client, seq)
	if err != nil {
		return err
	}
	checkServe(r, seq, replies)
	reportDispositions(r, seq, replies)
	reportSelfTimes(r, o.tr.snapshot(), wall, untraced)
	return layerMicros(r, progs, bench.SizeTiny, nil)
}

// checkServe checks every reply is a 200 that decodes, every repeat is
// byte-identical to the first reply to the same request, and every
// estimate's Σ weight·CPI equals its CPI.
func checkServe(r *report, seq []serveReq, replies []serveReply) {
	first := make(map[string][]byte)
	for i, q := range seq {
		rep := replies[i]
		if rep.err != nil || rep.status != http.StatusOK {
			continue // already counted as a failed operation
		}
		if q.endpoint == "estimate" {
			var est serve.EstimateResponse
			err := json.Unmarshal(rep.body, &est)
			cpi := 0.0
			for _, pr := range est.PointRecords {
				cpi += pr.Weight * pr.CPI
			}
			r.check(err == nil && est.Benchmark == q.bench && est.Config == q.config && cpi == est.CPI,
				"request %d %s: estimate does not decode or Σ weight·CPI %v != CPI %v (%v)", i, q.key(), cpi, est.CPI, err)
		} else {
			var plan serve.PlanResponse
			err := json.Unmarshal(rep.body, &plan)
			r.check(err == nil && plan.Benchmark == q.bench && len(plan.Points) > 0,
				"request %d %s: plan does not decode (%v)", i, q.key(), err)
		}
		if b, ok := first[q.key()]; ok {
			r.check(bytes.Equal(b, rep.body), "request %d %s: repeat differs from the first reply", i, q.key())
		} else {
			first[q.key()] = rep.body
		}
	}
}

// serveAccuracy reports the served estimates' deviation from the full
// detailed run of each (program, config), one value per distinct
// estimate request. Truth runs after the timed region. It returns the
// requested programs for the rate micros.
func serveAccuracy(r *report, seq []serveReq, replies []serveReply) ([]*prog.Program, error) {
	type pc struct {
		bench, config string
	}
	seen := make(map[string]bool)
	var keys []int
	progByName := make(map[string]*prog.Program)
	var progs []*prog.Program
	needed := make(map[pc]bool)
	for i, q := range seq {
		if _, ok := progByName[q.bench]; !ok {
			ps, _, err := programs([]string{q.bench}, bench.SizeTiny)
			if err != nil {
				return nil, err
			}
			progByName[q.bench] = ps[0]
			progs = append(progs, ps[0])
		}
		if q.endpoint != "estimate" || seen[q.key()] || replies[i].status != http.StatusOK {
			continue
		}
		seen[q.key()] = true
		keys = append(keys, i)
		needed[pc{q.bench, q.config}] = true
	}
	truths := make(map[pc]cpu.Result)
	for _, c := range []string{"A", "B"} {
		cfg, err := config.ByName(c)
		if err != nil {
			return nil, err
		}
		var ps []*prog.Program
		var names []string
		for _, p := range progs {
			if needed[pc{p.Name, c}] {
				ps = append(ps, p)
				names = append(names, p.Name)
			}
		}
		res, err := truthsFor(ps, cfg)
		if err != nil {
			return nil, err
		}
		for i := range ps {
			truths[pc{names[i], c}] = res[i]
		}
	}
	// Sum in (benchmark, config) order, not arrival order, so every
	// seed reports the same bits.
	sort.Slice(keys, func(a, b int) bool {
		x, y := seq[keys[a]], seq[keys[b]]
		return x.bench < y.bench || (x.bench == y.bench && x.config < y.config)
	})
	var dev [3]float64
	for _, i := range keys {
		var est serve.EstimateResponse
		if err := json.Unmarshal(replies[i].body, &est); err != nil {
			return nil, err
		}
		c, l1, l2 := pipeline.Deviations(&pipeline.Estimate{CPI: est.CPI, L1Hit: est.L1Hit, L2Hit: est.L2Hit}, truths[pc{seq[i].bench, seq[i].config}])
		dev[0] += 100 * c / float64(len(keys))
		dev[1] += 100 * l1 / float64(len(keys))
		dev[2] += 100 * l2 / float64(len(keys))
	}
	r.set("cpi_dev_pct", dev[0], len(keys))
	r.set("l1_dev_pct", dev[1], len(keys))
	r.set("l2_dev_pct", dev[2], len(keys))
	sort.Slice(progs, func(i, j int) bool { return progs[i].Name < progs[j].Name })
	return progs, nil
}

// reportDispositions derives the serve.* metrics from the replies'
// X-Mlpa-Cache and X-Mlpa-Ckpt headers.
func reportDispositions(r *report, seq []serveReq, replies []serveReply) {
	var hits, coalesced, builds, reuses int
	var missMS, hitMS, planMS []float64
	for i, rep := range replies {
		switch rep.cache {
		case "hit":
			hits++
			hitMS = append(hitMS, rep.ms)
		case "coalesced":
			coalesced++
		case "miss":
			if seq[i].endpoint == "plan" {
				planMS = append(planMS, rep.ms)
			} else {
				missMS = append(missMS, rep.ms)
			}
		}
		switch rep.ckpt {
		case "build":
			builds++
		case "reuse":
			reuses++
		}
	}
	n := float64(len(replies))
	r.set("serve.hit_frac", float64(hits)/n, len(replies))
	r.set("serve.coalesced_frac", float64(coalesced)/n, len(replies))
	if builds+reuses > 0 {
		r.set("serve.ckpt_reuse_frac", float64(reuses)/float64(builds+reuses), builds+reuses)
	}
	r.set("serve.miss_ms.p50", median(missMS), len(missMS))
	r.set("serve.hit_ms.p50", median(hitMS), len(hitMS))
	r.set("serve.plan_ms.p50", median(planMS), len(planMS))
}
