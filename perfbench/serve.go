package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/taskpar/avd/internal/obs"
	"github.com/taskpar/avd/internal/server"
)

// planned is one submission of a pass.
type planned struct {
	in     *input
	resend bool // a re-send of a trace this client already got a verdict for
}

// op is the client's record of one submission.
type op struct {
	admitted, refused, ok, done, resend bool
	status                              int
	verdict                             time.Duration // POST sent → /report body received
	submit, stream, report              time.Duration
}

// pass is the client and server view of one pass against a fresh service.
type pass struct {
	ops      []op
	wall     time.Duration
	heap     float64 // MiB retained by the service after its last verdict
	views    []server.View
	prom     *obs.PromMetrics
	shards   int
	mismatch string // server counters that disagree with the client's tallies
}

// nextFunc hands client c its next submission.
type nextFunc func(c int) (planned, bool)

// kernelPlan queues the kernels' uploads in a seeded order; idle clients
// take the next one.
func kernelPlan(rng *rand.Rand, ins []input) nextFunc {
	order := rng.Perm(len(ins))
	var next atomic.Int64
	return func(int) (planned, bool) {
		i := int(next.Add(1)) - 1
		if i >= len(order) {
			return planned{}, false
		}
		return planned{in: &ins[order[i]]}, true
	}
}

// findingsPlan gives each client its own share of the programs in a
// seeded order; every fourth submission re-sends one of the client's
// earlier programs, which the service's report cache then answers.
func findingsPlan(rng *rand.Rand, ins []input, clients int) nextFunc {
	seqs := make([][]planned, clients)
	for c := range seqs {
		var share []*input
		for i := range ins {
			if ins[i].client == c {
				share = append(share, &ins[i])
			}
		}
		fresh := rng.Perm(len(share))
		for j, f := 0, 0; f < len(fresh); j++ {
			if j%4 == 3 {
				seqs[c] = append(seqs[c], planned{in: share[fresh[rng.Intn(f)]], resend: true})
				continue
			}
			seqs[c] = append(seqs[c], planned{in: share[fresh[f]]})
			f++
		}
	}
	pos := make([]int, clients)
	return func(c int) (planned, bool) {
		if pos[c] >= len(seqs[c]) {
			return planned{}, false
		}
		pos[c]++
		return seqs[c][pos[c]-1], true
	}
}

// runPass starts a fresh default service behind a loopback listener,
// lets the closed-loop clients submit until the plan is exhausted, and
// then reads the service's run views and counters.
func runPass(next nextFunc, clients, idle int, t *tracer) (*pass, error) {
	settle(idle)
	h0 := heapMB()
	svc := server.New(server.Config{})
	ts := httptest.NewServer(svc.Handler())
	tr := &http.Transport{MaxIdleConnsPerHost: 2 * clients}
	cl := &client{hc: &http.Client{Transport: tr}, url: ts.URL, t: t}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = svc.Shutdown(ctx) // every run is terminal by now; nothing to drain
		tr.CloseIdleConnections()
		ts.Close()
	}()

	p := &pass{}
	perClient := make([][]op, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				sub, ok := next(c)
				if !ok {
					return
				}
				perClient[c] = append(perClient[c], cl.check(sub))
			}
		}(c)
	}
	wg.Wait()
	p.wall = time.Since(start)
	p.heap = heapMB() - h0
	for _, ops := range perClient {
		p.ops = append(p.ops, ops...)
	}

	if err := cl.getJSON("/v1/checkruns", &p.views); err != nil {
		return nil, err
	}
	body, err := cl.get("/metrics")
	if err != nil {
		return nil, err
	}
	if p.prom, err = obs.ParseProm(bytes.NewReader(body)); err != nil {
		return nil, fmt.Errorf("parsing /metrics: %w", err)
	}
	p.shards = p.count("avd_server_shard_queue_depth{")
	p.mismatch = p.checkCounters()
	return p, nil
}

// settle waits, up to a bound, until no more than idle goroutines are
// left, that is until those of earlier services and connections have
// exited, so that the heap measured next no longer holds them.
func settle(idle int) {
	for i := 0; i < 500 && runtime.NumGoroutine() > idle; i++ {
		time.Sleep(2 * time.Millisecond)
	}
}

// count returns how many series start with prefix.
func (p *pass) count(prefix string) int {
	n := 0
	for k := range p.prom.Samples {
		if strings.HasPrefix(k, prefix) {
			n++
		}
	}
	return n
}

// total sums the series that start with prefix.
func (p *pass) total(prefix string) int {
	var v float64
	for k, x := range p.prom.Samples {
		if strings.HasPrefix(k, prefix) {
			v += x
		}
	}
	return int(v)
}

// checkCounters compares the service's own counters with what the
// clients saw, and describes any disagreement.
func (p *pass) checkCounters() string {
	var admitted, refused, hits, done int
	for _, o := range p.ops {
		switch {
		case o.admitted:
			admitted++
		case o.refused:
			refused++
		}
		if o.admitted && o.resend {
			hits++
		}
		if o.done {
			done++
		}
	}
	var bad []string
	for _, c := range []struct {
		series      string
		server, cli int
	}{
		{"avd_server_admitted_total", p.total("avd_server_admitted_total"), admitted},
		{"avd_server_rejected_total", p.total("avd_server_rejected_total{"), refused},
		{"avd_server_report_cache_hits_total", p.total("avd_server_report_cache_hits_total"), hits},
		{`avd_server_runs_total{status="done"}`, p.total(`avd_server_runs_total{status="done"}`), done},
	} {
		if c.server != c.cli {
			bad = append(bad, fmt.Sprintf("%s=%d, clients saw %d", c.series, c.server, c.cli))
		}
	}
	return strings.Join(bad, "; ")
}

// client is one closed-loop caller: it submits, follows the run's event
// stream to its end, fetches the report, and only then submits again.
type client struct {
	hc  *http.Client
	url string
	t   *tracer
}

func (c *client) get(path string) ([]byte, error) {
	resp, err := c.hc.Get(c.url + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("GET %s: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return body, nil
}

func (c *client) getJSON(path string, v any) error {
	body, err := c.get(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(body, v)
}

// check performs one submission and verifies its verdict. Refusals are
// recorded, never retried.
func (c *client) check(sub planned) op {
	req := c.t.request()
	root := c.t.begin("bench.request", 0, req)
	defer c.t.end(root)
	o := op{resend: sub.resend}
	start := time.Now()

	var (
		view server.View
		err  error
	)
	o.submit = c.t.timed("server.submit", root, req, func() {
		var resp *http.Response
		resp, err = c.hc.Post(c.url+"/v1/checkruns", "application/json", bytes.NewReader(sub.in.body))
		if err != nil {
			return
		}
		defer resp.Body.Close()
		o.status = resp.StatusCode
		var body []byte
		if body, err = io.ReadAll(resp.Body); err == nil && o.status == http.StatusAccepted {
			err = json.Unmarshal(body, &view)
		}
	})
	if err != nil || o.status != http.StatusAccepted {
		// 413, 429 and 503 are the service refusing the upload; a
		// transport error on an oversized body is the same refusal
		// seen before the status line arrived.
		o.refused = true
		return o
	}
	o.admitted = true

	var events, report []byte
	var serr, rerr error
	o.stream = c.t.timed("server.stream", root, req, func() {
		events, serr = c.get(fmt.Sprintf("/v1/checkruns/%d/events", view.ID))
	})
	o.report = c.t.timed("server.report", root, req, func() {
		report, rerr = c.get(fmt.Sprintf("/v1/checkruns/%d/report", view.ID))
	})
	o.verdict = time.Since(start)
	if serr != nil || rerr != nil {
		return o
	}
	c.t.timed("bench.verify", root, req, func() {
		o.done = finalStatus(events) == server.StatusDone
		reduced, err := server.ReduceStream(bytes.NewReader(events))
		o.ok = o.done && err == nil && sub.in.sound &&
			bytes.Equal(report, sub.in.ref) && bytes.Equal(reduced, report)
	})
	return o
}

// finalStatus returns the last lifecycle state an event stream announced.
func finalStatus(events []byte) server.Status {
	var last server.Status
	_ = server.DecodeSSE(bytes.NewReader(events), func(event string, data []byte) error {
		if event != server.EventState {
			return nil
		}
		var ev server.StreamEvent
		if json.Unmarshal(data, &ev) == nil {
			last = ev.Status
		}
		return nil
	}) // a malformed stream leaves the status unset, which fails the op
	return last
}

// serveWindow runs passes until the window closes. idle is the
// goroutine count of the process with no service running.
func serveWindow(cfg config, rng *rand.Rand, ins []input, clients, idle int, seconds float64, t *tracer) ([]*pass, error) {
	var passes []*pass
	end := deadline(seconds)
	for i := 0; i < cfg.minPasses || time.Now().Before(end); i++ {
		var next nextFunc
		if cfg.workload == "serve-kernels" {
			next = kernelPlan(rng, ins)
		} else {
			next = findingsPlan(rng, ins, clients)
		}
		p, err := runPass(next, clients, idle, t)
		if err != nil {
			return nil, fmt.Errorf("pass %d: %w", i, err)
		}
		passes = append(passes, p)
	}
	return passes, nil
}

// tally sums a window's operations. A pass whose server counters
// disagree with the clients fails all of its operations.
type tally struct {
	attempted, failed, verdicts int
	mismatches                  []string
	wall                        time.Duration
	verdictMS, heap, passS      []float64
}

func tallyPasses(passes []*pass) tally {
	var tl tally
	for i, p := range passes {
		tl.wall += p.wall
		tl.heap = append(tl.heap, p.heap)
		tl.passS = append(tl.passS, p.wall.Seconds())
		tl.attempted += len(p.ops)
		if p.mismatch != "" {
			tl.failed += len(p.ops)
			tl.mismatches = append(tl.mismatches, fmt.Sprintf("pass %d: %s", i, p.mismatch))
			continue
		}
		for _, o := range p.ops {
			if o.admitted {
				tl.verdictMS = append(tl.verdictMS, ms(o.verdict))
			}
			if o.ok {
				tl.verdicts++
			} else {
				tl.failed++
			}
		}
	}
	return tl
}

// runServe is the serve-kernels and serve-findings workloads.
func runServe(cfg config) (*outcome, error) {
	clients := runtime.NumCPU()
	idle := runtime.NumGoroutine()
	ins, setups, digest, unstable, err := setupInputs(cfg, clients)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	if cfg.corruptRefs {
		ins[0].ref = append([]byte("corrupted reference\n"), ins[0].ref...)
	}
	out := &outcome{env: map[string]any{"clients": clients, "inputs": len(ins), "input_digest": digest}}
	if len(unstable) > 0 {
		// Known: deltriang's triangle order follows Go map iteration, so
		// which leaf task reads which vertex differs between recordings.
		out.env["inputs_varying_between_setups"] = unstable
	}

	if !cfg.trace {
		passes, err := serveWindow(cfg, rng, ins, clients, idle, cfg.seconds, nil)
		if err != nil {
			return nil, err
		}
		tl := tallyPasses(passes)
		describe(out, passes, tl)
		out.metrics = []metric{
			{"setup_s", median(setups), "s", len(setups)},
			{"ok_ratio", ratio(float64(tl.attempted-tl.failed), float64(tl.attempted)), "ratio", tl.attempted},
			{"retained_heap_mb", median(tl.heap), "MiB", len(tl.heap)},
			{"suite_pass_s", median(tl.passS), "s", len(tl.passS)},
			{"verdicts_per_s", float64(tl.verdicts) / tl.wall.Seconds(), "1/s", tl.verdicts},
			{"verdict_ms_p50", median(tl.verdictMS), "ms", len(tl.verdictMS)},
			{"verdict_ms_p99", percentile(tl.verdictMS, 99), "ms", len(tl.verdictMS)},
		}
		out.env["p99_beyond"] = beyond(tl.verdictMS, 99)
		return out, nil
	}

	plain, err := serveWindow(cfg, rng, ins, clients, idle, cfg.seconds/2, nil)
	if err != nil {
		return nil, err
	}
	t := newTracer()
	passes, err := serveWindow(cfg, rng, ins, clients, idle, cfg.seconds/2, t)
	if err != nil {
		return nil, err
	}
	all := append(append([]*pass(nil), plain...), passes...)
	describe(out, all, tallyPasses(all))
	out.metrics = append(serverMetrics(passes), ledger(ins, t)...)
	out.metrics = append(out.metrics,
		metric{"bench.tracing_overhead", median(tallyPasses(passes).verdictMS) / median(tallyPasses(plain).verdictMS), "ratio", len(plain) + len(passes)})
	out.metrics = append(out.metrics, selfMetrics(t)...)
	return out, finishTrace(cfg, t, out)
}

// describe fills the outcome's counts and environment from a window.
func describe(out *outcome, passes []*pass, tl tally) {
	out.attempted, out.failed = tl.attempted, tl.failed
	out.correct = len(tl.mismatches) == 0
	for _, p := range passes {
		for _, o := range p.ops {
			// A delivered verdict that disagrees with the known answer
			// makes the run incorrect; refusals only count as failed.
			if o.admitted && !o.ok {
				out.correct = false
			}
		}
	}
	if len(tl.mismatches) > 0 {
		out.env["counter_mismatches"] = tl.mismatches
	}
	if len(passes) > 0 {
		out.env["shards"] = passes[0].shards
		out.env["workers"] = passes[0].shards // each shard replays one run at a time
	}
	refused := map[int]int{}
	for _, p := range passes {
		for _, o := range p.ops {
			if o.refused {
				refused[o.status]++
			}
		}
	}
	out.env["refused_by_status"] = refused
	out.env["passes"] = len(passes)
}

// serverMetrics derives the server layer's figures from the clients'
// timings, the run views and /metrics of the traced passes.
func serverMetrics(passes []*pass) []metric {
	var submit, stream, report, queue, exec, busy, rejected []float64
	var hits, misses int
	for _, p := range passes {
		for _, o := range p.ops {
			if o.admitted {
				submit = append(submit, ms(o.submit))
				stream = append(stream, ms(o.stream))
				report = append(report, ms(o.report))
			}
		}
		perShard := make([]float64, p.shards)
		for _, v := range p.views {
			if v.StartedAt == nil || v.FinishedAt == nil {
				continue
			}
			queue = append(queue, ms(v.StartedAt.Sub(v.CreatedAt)))
			e := v.FinishedAt.Sub(*v.StartedAt)
			exec = append(exec, ms(e))
			if v.Shard < len(perShard) {
				perShard[v.Shard] += e.Seconds()
			}
		}
		var top float64
		for _, b := range perShard {
			top = max(top, b)
		}
		busy = append(busy, ratio(top, sum(perShard)/float64(len(perShard))))
		rejected = append(rejected, float64(p.total("avd_server_rejected_total{")))
		hits += p.total("avd_server_report_cache_hits_total")
		misses += p.total("avd_server_report_cache_misses_total")
	}
	return []metric{
		{"server.submit_ms_p50", median(submit), "ms", len(submit)},
		{"server.queue_wait_ms_p50", median(queue), "ms", len(queue)},
		{"server.queue_wait_ms_p99", percentile(queue, 99), "ms", len(queue)},
		{"server.exec_ms_p50", median(exec), "ms", len(exec)},
		{"server.stream_ms_p50", median(stream), "ms", len(stream)},
		{"server.report_ms_p50", median(report), "ms", len(report)},
		{"server.cache_hit_ratio", ratio(float64(hits), float64(hits+misses)), "ratio", hits + misses},
		{"server.shard_busy_max_over_mean", median(busy), "ratio", len(busy)},
		{"server.rejected", median(rejected), "count", len(rejected)},
	}
}
