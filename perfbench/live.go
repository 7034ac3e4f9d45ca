package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	avd "github.com/taskpar/avd"
	"github.com/taskpar/avd/internal/bench"
	"github.com/taskpar/avd/internal/harness"
)

// kernelRun is one kernel execution under a live session.
type kernelRun struct {
	dur  time.Duration
	heap float64 // MiB live after Run, before Close
	rep  avd.Report
	err  error
}

// runKernel executes k once under a fresh session with opts. Only the
// kernel's Run is timed; the retained heap is taken after it returns,
// while the session's analysis state is still alive.
func runKernel(k bench.Kernel, n int, opts avd.Options, t *tracer, name string, parent int, req int64) kernelRun {
	s := avd.NewSession(opts)
	var (
		sum  float64
		perr error
	)
	d := t.timed(name, parent, req, func() { sum, perr = guardedRun(k, s, n) })
	rep := s.Report()
	heap := heapMB()
	s.Close()
	if perr == nil {
		perr = k.Check(n, sum)
	}
	return kernelRun{dur: d, heap: heap, rep: rep, err: perr}
}

// guardedRun turns a panic escaping the kernel into an error, so a
// broken run is counted as a failed operation instead of ending the
// benchmark.
func guardedRun(k bench.Kernel, s *avd.Session, n int) (sum float64, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("%s panicked: %v", k.Name, p)
		}
	}()
	return k.Run(s, n), nil
}

// livePasses accumulates the passes of one measurement window.
type livePasses struct {
	checked, baseline []float64 // suite seconds per pass
	heapMax           []float64 // max retained heap over a pass's kernels
	perKernel         map[string][]float64
	perKernelBase     map[string][]float64
	verdictMS         []float64
	attempted, failed int
	verdicts          int // correct checked verdicts
	wall              time.Duration
	stats             avd.Stats // summed over the checked runs of the last pass
	filterHits        int64
	filterMisses      int64
}

// liveWindow runs passes until the window closes: each pass visits the
// kernels in a seeded order, pairing every checked run with a
// CheckerNone run of the same kernel.
func liveWindow(cfg config, rng *rand.Rand, kernels []bench.Kernel, sizes map[string]int,
	workers int, seconds float64, t *tracer, corruptFirst bool) *livePasses {
	lp := &livePasses{perKernel: map[string][]float64{}, perKernelBase: map[string][]float64{}}
	checkedOpts := avd.Options{Workers: workers}
	baseOpts := avd.Options{Workers: workers, Checker: avd.CheckerNone}
	start := time.Now()
	end := deadline(seconds)
	for pass := 0; pass < cfg.minPasses || time.Now().Before(end); pass++ {
		var suite, base, hmax float64
		var st avd.Stats
		for i, ki := range rng.Perm(len(kernels)) {
			k := kernels[ki]
			n := sizes[k.Name]
			req := t.request()
			root := t.begin("bench.kernel", 0, req)
			c := runKernel(k, n, checkedOpts, t, "checker.session_run", root, req)
			b := runKernel(k, n, baseOpts, t, "sched.session_run", root, req)
			t.end(root)

			wantViolations := int64(0)
			if corruptFirst && pass == 0 && i == 0 {
				wantViolations = 1
			}
			lp.attempted += 2
			if c.err != nil || c.rep.ViolationCount != wantViolations {
				lp.failed++
			} else {
				lp.verdicts++
			}
			if b.err != nil {
				lp.failed++
			}
			suite += c.dur.Seconds()
			base += b.dur.Seconds()
			hmax = max(hmax, c.heap)
			lp.verdictMS = append(lp.verdictMS, ms(c.dur))
			lp.perKernel[k.Name] = append(lp.perKernel[k.Name], c.dur.Seconds())
			lp.perKernelBase[k.Name] = append(lp.perKernelBase[k.Name], b.dur.Seconds())
			st.Locations += c.rep.Stats.Locations
			st.DPSTNodes += c.rep.Stats.DPSTNodes
			st.LCAQueries += c.rep.Stats.LCAQueries
			lp.filterHits += c.rep.Stats.FilterHits
			lp.filterMisses += c.rep.Stats.FilterMisses
		}
		lp.checked = append(lp.checked, suite)
		lp.baseline = append(lp.baseline, base)
		lp.heapMax = append(lp.heapMax, hmax)
		lp.stats = st
	}
	lp.wall = time.Since(start)
	return lp
}

// runLive is the live-kernels workload.
func runLive(cfg config) (*outcome, error) {
	kernels := bench.All()
	sizes := harness.Sizes(cfg.scale)
	workers := runtime.NumCPU()
	rng := rand.New(rand.NewSource(cfg.seed))

	// Set-up is the warm-up a live user pays once per process: one
	// CheckerNone pass over the kernels, in seeded order, checksums
	// verified. It is repeated and its median reported.
	var setups []float64
	for i := 0; i < cfg.setups; i++ {
		start := time.Now()
		for _, ki := range rng.Perm(len(kernels)) {
			k := kernels[ki]
			r := runKernel(k, sizes[k.Name], avd.Options{Workers: workers, Checker: avd.CheckerNone}, nil, "", 0, 0)
			if r.err != nil {
				return nil, fmt.Errorf("set-up: %w", r.err)
			}
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	out := &outcome{env: map[string]any{"workers": workers, "shards": 0, "clients": 1, "kernels": len(kernels)}}
	if !cfg.trace {
		lp := liveWindow(cfg, rng, kernels, sizes, workers, cfg.seconds, nil, cfg.corruptRefs)
		out.attempted, out.failed = lp.attempted, lp.failed
		out.correct = lp.failed == 0
		out.metrics = []metric{
			{"setup_s", median(setups), "s", len(setups)},
			{"ok_ratio", ratio(float64(lp.attempted-lp.failed), float64(lp.attempted)), "ratio", lp.attempted},
			{"retained_heap_mb", median(lp.heapMax), "MiB", len(lp.heapMax)},
			{"suite_pass_s", median(lp.checked), "s", len(lp.checked)},
			{"verdicts_per_s", float64(lp.verdicts) / lp.wall.Seconds(), "1/s", lp.verdicts},
			{"verdict_ms_p50", median(lp.verdictMS), "ms", len(lp.verdictMS)},
			{"verdict_ms_p99", percentile(lp.verdictMS, 99), "ms", len(lp.verdictMS)},
		}
		out.env["p99_beyond"] = beyond(lp.verdictMS, 99)
		return out, nil
	}

	// Traced run: the first half untraced, the second half recording
	// spans, then one checked pass at a single worker.
	plain := liveWindow(cfg, rng, kernels, sizes, workers, cfg.seconds/2, nil, false)
	t := newTracer()
	lp := liveWindow(cfg, rng, kernels, sizes, workers, cfg.seconds/2, t, false)
	var w1 float64
	for _, k := range kernels {
		req := t.request()
		r := runKernel(k, sizes[k.Name], avd.Options{Workers: 1}, t, "checker.session_run_w1", 0, req)
		lp.attempted++
		if r.err != nil || r.rep.ViolationCount != 0 {
			lp.failed++
		}
		w1 += r.dur.Seconds()
	}
	out.attempted, out.failed = plain.attempted+lp.attempted, plain.failed+lp.failed
	out.correct = out.failed == 0
	checked, base := median(lp.checked), median(lp.baseline)
	m := []metric{
		{"sched.baseline_suite_s", base, "s", len(lp.baseline)},
		{"sched.w1_over_wn", w1 / checked, "ratio", len(lp.checked)},
		{"checker.overhead_s", checked - base, "s", len(lp.checked)},
		{"checker.filter_hit_ratio", ratio(float64(lp.filterHits), float64(lp.filterHits+lp.filterMisses)), "ratio", int(lp.filterHits + lp.filterMisses)},
		{"checker.locations", float64(lp.stats.Locations), "count", len(kernels)},
		{"dpst.nodes", float64(lp.stats.DPSTNodes), "count", len(kernels)},
		{"dpst.lca_queries", float64(lp.stats.LCAQueries), "count", len(kernels)},
		{"bench.tracing_overhead", checked / median(plain.checked), "ratio", len(lp.checked) + len(plain.checked)},
	}
	for _, k := range kernels {
		m = append(m,
			metric{"sched.baseline." + k.Name + "_s", median(lp.perKernelBase[k.Name]), "s", len(lp.perKernelBase[k.Name])},
			metric{"checker.live." + k.Name + "_s", median(lp.perKernel[k.Name]), "s", len(lp.perKernel[k.Name])})
	}
	out.metrics = append(m, selfMetrics(t)...)
	return out, finishTrace(cfg, t, out)
}
