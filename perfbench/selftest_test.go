package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

// benchmarkFile is the part of BENCHMARK.json the self-test holds the
// program to.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value *float64 `json:"value"`
		Unit  string   `json:"unit"`
	} `json:"metrics"`
}

// tiny is a run small enough for a unit test.
func tiny(t *testing.T, workload string, traced bool) config {
	return config{
		workload: workload, seed: 7, seconds: 0.2, trace: traced, outDir: t.TempDir(),
		scale: 0.02, perClient: 4, setups: 2, minPasses: 1,
	}
}

// runTiny runs cfg and returns the printed output and the parsed result.
func runTiny(t *testing.T, cfg config) (string, result) {
	t.Helper()
	out, err := run(cfg)
	if err != nil {
		t.Fatalf("%s: %v", cfg.workload, err)
	}
	out.env["commit"] = "test"
	var buf bytes.Buffer
	if err := printOutcome(&buf, cfg, out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not the result: %v", cfg.workload, err)
	}
	return lines[len(lines)-1], res
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestMetricsMatchBenchmarkFile runs every workload untraced and traced
// at a tiny size and checks that each metric BENCHMARK.json names is
// printed exactly once, with its declared unit, and nothing else.
func TestMetricsMatchBenchmarkFile(t *testing.T) {
	bf := loadBenchmarkFile(t)
	for _, w := range bf.Workloads {
		for _, traced := range []bool{false, true} {
			line, res := runTiny(t, tiny(t, w.Name, traced))
			want := bf.EndToEnd
			if traced {
				want = bf.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: printed %d metrics, BENCHMARK.json names %d", w.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok || got.Value == nil:
					t.Errorf("%s traced=%v: metric %s missing", w.Name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s traced=%v: metric %s in %q, declared %q", w.Name, traced, m.Name, got.Unit, m.Unit)
				case strings.Count(line, `"`+m.Name+`"`) != 1:
					t.Errorf("%s traced=%v: metric %s printed more than once", w.Name, traced, m.Name)
				}
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d on clean tiny inputs",
					w.Name, traced, res.Correct, res.Attempted, res.Failed)
			}
		}
	}
}

// TestCorruptedReferenceCounts corrupts one known answer and checks that
// the operations checked against it are counted as failed.
func TestCorruptedReferenceCounts(t *testing.T) {
	for _, w := range loadBenchmarkFile(t).Workloads {
		cfg := tiny(t, w.Name, false)
		cfg.corruptRefs = true
		_, res := runTiny(t, cfg)
		if res.Failed == 0 || res.Correct {
			t.Errorf("%s: corrupted reference gave correct=%v failed=%d", w.Name, res.Correct, res.Failed)
		}
		if ok := *res.Metrics["ok_ratio"].Value; ok >= 1 {
			t.Errorf("%s: ok_ratio %v with a corrupted reference", w.Name, ok)
		}
	}
}

func TestStats(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if m := median(xs); m != 3 {
		t.Errorf("median = %v", m)
	}
	if p := percentile(xs, 99); p != 5 {
		t.Errorf("p99 = %v", p)
	}
	if b := beyond([]float64{1, 2, 3, 4}, 50); b != 2 {
		t.Errorf("beyond p50 = %d", b)
	}
	s := []span{
		{ID: 1, Name: "bench.request", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "server.submit", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "server.stream", Start: 30, End: 60},
	}
	tr := &tracer{spans: s}
	self, _ := tr.selfTimes()
	if got := self["bench"] * 1e9; math.Abs(got-50) > 1e-6 {
		t.Errorf("bench self time = %vns, want 50ns", got)
	}
	if got := self["server"] * 1e9; math.Abs(got-60) > 1e-6 {
		t.Errorf("server self time = %vns, want 60ns", got)
	}
}
