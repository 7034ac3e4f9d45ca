// Command avd-perfbench is the repository benchmark. It drives the
// shipping defaults (avd.Options{} and server.Config{}) through their
// public entry points on three workloads, checks every operation against
// a known answer, and prints one JSON result line.
//
//	live-kernels    the 13 paper kernels under a live avd.Session, each
//	                checked run paired with a CheckerNone run
//	serve-kernels   the same kernels' recorded traces uploaded to an
//	                in-process avd-serverd service, a fresh one per pass
//	serve-findings  many small seeded racy programs uploaded to the
//	                service, one submission in four a re-send
//
// Untraced runs (--trace 0) print the end-to-end metrics. A traced run
// (--trace 1) spends half its time untraced and half recording spans
// around each call into a layer, then prints the per-layer metrics, the
// tracing overhead, and each layer's self time, and writes the spans as
// Chrome trace-event JSON (open it in ui.perfetto.dev).
//
// Run it through run.sh from the repository root:
//
//	bash perfbench/run.sh --workload serve-findings --seed 1 --seconds 12 --trace 0
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"github.com/taskpar/avd/internal/bench"
)

// config is one benchmark run. The fields past trace exist for the
// self-test, which shrinks the inputs and corrupts a reference answer.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	outDir   string

	scale       float64 // kernel problem-size scale (1 = the paper's sizes)
	perClient   int     // findings programs in each client's share
	setups      int     // set-up repetitions; setup_s is their median
	minPasses   int     // passes measured even past the time budget
	corruptRefs bool    // replace one reference answer with a wrong one
}

// metric is one printed figure; samples is the count it was computed
// from, printed with the environment.
type metric struct {
	name    string
	value   float64
	unit    string
	samples int
}

// outcome is what a workload run reports.
type outcome struct {
	correct   bool
	attempted int
	failed    int
	metrics   []metric
	env       map[string]any
}

// spec names a printed metric and its unit.
type spec struct{ name, unit string }

// endToEnd are the metrics of an untraced run; every workload prints all
// of them.
var endToEnd = []spec{
	{"setup_s", "s"},
	{"ok_ratio", "ratio"},
	{"retained_heap_mb", "MiB"},
	{"suite_pass_s", "s"},
	{"verdicts_per_s", "1/s"},
	{"verdict_ms_p50", "ms"},
	{"verdict_ms_p99", "ms"},
}

// layerMetrics are the metrics of a traced run; every workload prints
// all of them, 0 for a layer it does not exercise.
func layerMetrics() []spec {
	out := []spec{{"sched.baseline_suite_s", "s"}}
	kernels := bench.All()
	for _, k := range kernels {
		out = append(out, spec{"sched.baseline." + k.Name + "_s", "s"})
	}
	out = append(out, spec{"sched.w1_over_wn", "ratio"}, spec{"checker.overhead_s", "s"})
	for _, k := range kernels {
		out = append(out, spec{"checker.live." + k.Name + "_s", "s"})
	}
	return append(out, []spec{
		{"checker.ns_per_access", "ns"},
		{"checker.filter_hit_ratio", "ratio"},
		{"checker.locations", "count"},
		{"checker.explain_us", "us"},
		{"dpst.nodes", "count"},
		{"dpst.lca_queries", "count"},
		{"dpst.structure_ns_per_event", "ns"},
		{"dpst.par_ns", "ns"},
		{"trace.bytes_per_event", "B"},
		{"trace.decode_ns_per_event", "ns"},
		{"trace.encode_ns_per_event", "ns"},
		{"server.submit_ms_p50", "ms"},
		{"server.queue_wait_ms_p50", "ms"},
		{"server.queue_wait_ms_p99", "ms"},
		{"server.exec_ms_p50", "ms"},
		{"server.stream_ms_p50", "ms"},
		{"server.report_ms_p50", "ms"},
		{"server.render_us", "us"},
		{"server.cache_hit_ratio", "ratio"},
		{"server.shard_busy_max_over_mean", "ratio"},
		{"server.rejected", "count"},
		{"bench.tracing_overhead", "ratio"},
		{"bench.self_s", "s"},
		{"sched.self_s", "s"},
		{"checker.self_s", "s"},
		{"dpst.self_s", "s"},
		{"trace.self_s", "s"},
		{"server.self_s", "s"},
	}...)
}

func main() {
	cfg := config{scale: 1, perClient: 96, setups: 5, minPasses: 3}
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "live-kernels, serve-kernels or serve-findings")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measurement time in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run printing the per-layer metrics")
	flag.Parse()
	cfg.trace = traceFlag == 1
	cfg.outDir = filepath.Join(".bench_build", "perfbench")
	if cfg.workload == "serve-kernels" {
		cfg.setups = 3 // each set-up records, encodes and replays all 13 kernels
	}
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "avd-perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	out, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "avd-perfbench: %v\n", err)
		os.Exit(1)
	}
	out.env["commit"] = commit()
	if err := printOutcome(os.Stdout, cfg, out); err != nil {
		fmt.Fprintf(os.Stderr, "avd-perfbench: %v\n", err)
		os.Exit(1)
	}
}

// run executes one workload and returns its outcome with the metric set
// of its mode completed.
func run(cfg config) (*outcome, error) {
	var (
		out *outcome
		err error
	)
	steal0, start := stolen(), time.Now()
	switch cfg.workload {
	case "live-kernels":
		out, err = runLive(cfg)
	case "serve-kernels", "serve-findings":
		out, err = runServe(cfg)
	default:
		return nil, fmt.Errorf("unknown workload %q (want live-kernels, serve-kernels or serve-findings)", cfg.workload)
	}
	if err != nil {
		return nil, err
	}
	out.env["workload"] = cfg.workload
	out.env["seed"] = cfg.seed
	out.env["nproc"] = runtime.NumCPU()
	out.env["gomaxprocs"] = runtime.GOMAXPROCS(0)
	out.env["go"] = runtime.Version()
	out.env["traced"] = cfg.trace
	// The share of CPU time the hypervisor took from this machine while
	// the run was measured: on a shared host, the main outside source of
	// run-to-run spread.
	out.env["cpu_steal_share"] = ratio(float64(stolen()-steal0), float64(time.Since(start))*float64(runtime.NumCPU()))
	return out, nil
}

// printOutcome prints the environment line, then the result as the last
// line of standard output. Only the metrics of the run's mode are
// printed; a metric the workload did not produce is printed as 0 and
// listed under not_exercised.
func printOutcome(w io.Writer, cfg config, out *outcome) error {
	want := endToEnd
	if cfg.trace {
		want = layerMetrics()
	}
	have := make(map[string]metric, len(out.metrics))
	for _, m := range out.metrics {
		have[m.name] = m
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(want))
	samples := make(map[string]int, len(want))
	var missing []string
	for _, m := range want {
		got, ok := have[m.name]
		if !ok {
			missing = append(missing, m.name)
		} else if got.unit != m.unit {
			return fmt.Errorf("metric %s measured in %s, declared in %s", m.name, got.unit, m.unit)
		}
		metrics[m.name] = value{Value: got.value, Unit: m.unit}
		samples[m.name] = got.samples
	}
	sort.Strings(missing)
	out.env["samples"] = samples
	if len(missing) > 0 {
		out.env["not_exercised"] = missing
	}
	env, err := json.Marshal(out.env)
	if err != nil {
		return err
	}
	res, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{out.correct, out.attempted, out.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "env %s\n%s\n", env, res)
	return err
}

// commit identifies the code under test: the git commit when the
// checkout is a repository, else a digest of the module's Go sources.
func commit() string {
	if c := strings.TrimSpace(os.Getenv("AVD_PERFBENCH_COMMIT")); c != "" {
		return c
	}
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", path, len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return "src-" + hex.EncodeToString(h.Sum(nil))[:16]
}

// deadline is the end of a measurement window that starts now.
func deadline(seconds float64) time.Time {
	return time.Now().Add(time.Duration(seconds * float64(time.Second)))
}
