package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the layer's public entry point. Spans of one submission or one kernel
// run share Req; Parent is the enclosing span's ID (0 for a root).
type span struct {
	ID, Parent int
	Req        int64
	Name       string
	Start, End time.Duration
}

// layer is the module a span's time is attributed to: the name's prefix
// before the first dot (sched, dpst, checker, trace, server, bench).
func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i > 0 {
		return s.Name[:i]
	}
	return s.Name
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op, so the measured code paths are
// identical in both modes apart from the recording itself.
type tracer struct {
	t0    time.Time
	reqs  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// request allocates a request ID shared by the spans of one operation.
func (t *tracer) request() int64 {
	if t == nil {
		return 0
	}
	return t.reqs.Add(1)
}

// begin opens a span and returns its ID (0 when untraced).
func (t *tracer) begin(name string, parent int, req int64) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name, Start: now})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// timed runs fn inside a span and returns fn's wall time, which is
// measured the same way whether or not t records.
func (t *tracer) timed(name string, parent int, req int64, fn func()) time.Duration {
	id := t.begin(name, parent, req)
	start := time.Now()
	fn()
	d := time.Since(start)
	t.end(id)
	return d
}

// selfTimes returns each layer's self time in seconds, the sum over its
// spans of the span's duration minus the part of it that child spans
// cover, and each layer's span count.
func (t *tracer) selfTimes() (self map[string]float64, spans map[string]int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self, spans = make(map[string]float64), make(map[string]int)
	for _, s := range t.spans {
		self[s.layer()] += (s.End - s.Start - covered(s, children[s.ID])).Seconds()
		spans[s.layer()]++
	}
	return self, spans
}

// covered returns how much of s's interval the union of kids spans.
func covered(s span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, s.Start), min(k.End, s.End)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi time.Duration
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
			continue
		}
		curHi = max(curHi, v[1])
	}
	return total + curHi - curLo
}

// chromeEvent is one Chrome trace-event record, the JSON avd-viz emits
// and Perfetto (ui.perfetto.dev) or chrome://tracing load.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int64          `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChrome writes every span as a complete ("X") event, one track per
// request, so nested layer calls render as nested slices.
func (t *tracer) writeChrome(w io.Writer) error {
	t.mu.Lock()
	events := make([]chromeEvent, 0, len(t.spans))
	for _, s := range t.spans {
		events = append(events, chromeEvent{
			Name: s.Name, Cat: s.layer(), Ph: "X",
			Ts:  float64(s.Start) / 1e3,
			Dur: float64(s.End-s.Start) / 1e3,
			Pid: 1, Tid: s.Req,
			Args: map[string]any{"span": s.ID, "parent": s.Parent},
		})
	}
	t.mu.Unlock()
	return json.NewEncoder(w).Encode(map[string]any{
		"traceEvents":     events,
		"displayTimeUnit": "ms",
	})
}

// save writes the Chrome trace and the per-layer self-time table under
// dir and returns the trace's path.
func (t *tracer) save(dir, stem string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, stem+".trace.json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	if err := t.writeChrome(bw); err != nil {
		f.Close()
		return "", fmt.Errorf("writing %s: %w", path, err)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("writing %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return "", err
	}
	table := filepath.Join(dir, stem+".selftime.txt")
	var sb strings.Builder
	t.writeSelfTable(&sb)
	return path, os.WriteFile(table, []byte(sb.String()), 0o644)
}

// writeSelfTable renders the per-layer self-time table, largest first.
func (t *tracer) writeSelfTable(w io.Writer) {
	self, _ := t.selfTimes()
	layers := make([]string, 0, len(self))
	var total float64
	for l, s := range self {
		layers = append(layers, l)
		total += s
	}
	sort.Slice(layers, func(i, j int) bool { return self[layers[i]] > self[layers[j]] })
	fmt.Fprintf(w, "%-8s %12s %7s\n", "layer", "self_s", "share")
	for _, l := range layers {
		fmt.Fprintf(w, "%-8s %12.4f %6.1f%%\n", l, self[l], 100*ratio(self[l], total))
	}
}

// selfMetrics turns the tracer's per-layer self times into metrics.
func selfMetrics(t *tracer) []metric {
	var m []metric
	self, spans := t.selfTimes()
	for layer, s := range self {
		m = append(m, metric{layer + ".self_s", s, "s", spans[layer]})
	}
	return m
}

// finishTrace writes the spans and the self-time table and records
// where they went.
func finishTrace(cfg config, t *tracer, out *outcome) error {
	path, err := t.save(cfg.outDir, fmt.Sprintf("%s-seed%d", cfg.workload, cfg.seed))
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	out.env["spans"] = path
	t.writeSelfTable(os.Stderr)
	return nil
}
