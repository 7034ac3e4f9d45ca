package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"mime/multipart"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	avd "github.com/taskpar/avd"
	"github.com/taskpar/avd/internal/chaos"
	"github.com/taskpar/avd/internal/trace"
)

// Handler returns the service's HTTP API:
//
//	POST /v1/checkruns            submit a trace (body = trace JSON);
//	                              query: checker=optimized|basic|velodrome,
//	                              strict=bool, deadline_ms=int
//	GET  /v1/checkruns            list run summaries
//	GET  /v1/checkruns/{id}       one run, including its findings
//	GET  /v1/checkruns/{id}/report  canonical text violation report
//	GET  /v1/checkruns/{id}/events  live event stream (SSE): state
//	                              transitions, findings as the checker
//	                              admits them, periodic analysis frames
//	POST /v1/checkruns/{id}/cancel  request cancellation
//	GET  /healthz                 liveness (503 while draining)
//	GET  /metrics                 Prometheus text exposition
//	GET  /debug/avd               server metrics + live run snapshots
//	GET  /debug/avd/spans         run-lifecycle spans as a Perfetto trace
//
// Submissions are either a raw trace JSON body or multipart/form-data
// with a "trace" part and an optional "lint" part (avd-lint -json
// output or a JSON array of candidate strings) whose staticavd
// candidates annotate the dynamic findings that confirm them.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/checkruns", s.handleSubmit)
	mux.HandleFunc("GET /v1/checkruns", s.handleList)
	mux.HandleFunc("GET /v1/checkruns/{id}", s.handleGet)
	mux.HandleFunc("GET /v1/checkruns/{id}/report", s.handleReport)
	mux.HandleFunc("GET /v1/checkruns/{id}/events", s.handleEvents)
	mux.HandleFunc("POST /v1/checkruns/{id}/cancel", s.handleCancel)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /debug/avd", s.handleDebug)
	mux.HandleFunc("GET /debug/avd/spans", s.handleSpans)
	return mux
}

// writeJSON writes v as a JSON response.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// errorBody is the JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
}

// handleSubmit admits one uploaded trace as a new check run. The
// untrusted input path is bounded end to end: a read deadline caps how
// long a slow client may dribble (408), MaxBytesReader caps the size
// before any allocation proportional to the claimed contents (413),
// DecodeBytes decodes the body already held and rejects malformed
// JSON, data after the trace, and structurally invalid traces (400),
// and Admit applies backpressure (429 + Retry-After) and drain refusal
// (503).
func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		s.metrics.rejectedDrain.Add(1)
		w.Header().Set("Retry-After", "5")
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: "service draining"})
		return
	}
	// A slow client must not hold a handler open forever: bound the
	// whole upload read. Ignore the error — transports that cannot set
	// per-request read deadlines (some middleware) just lose this layer.
	rc := http.NewResponseController(w)
	_ = rc.SetReadDeadline(time.Now().Add(s.cfg.UploadTimeout))
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		s.metrics.rejectedBody.Add(1)
		var tooBig *http.MaxBytesError
		switch {
		case errors.As(err, &tooBig):
			writeJSON(w, http.StatusRequestEntityTooLarge,
				errorBody{Error: fmt.Sprintf("upload exceeds %d bytes", s.cfg.MaxBodyBytes)})
		case errors.Is(err, os.ErrDeadlineExceeded):
			writeJSON(w, http.StatusRequestTimeout,
				errorBody{Error: fmt.Sprintf("upload slower than %v", s.cfg.UploadTimeout)})
		default:
			writeJSON(w, http.StatusBadRequest, errorBody{Error: "reading upload: " + err.Error()})
		}
		return
	}
	_ = rc.SetReadDeadline(time.Time{})
	var lint []string
	if ct := r.Header.Get("Content-Type"); strings.HasPrefix(ct, "multipart/") {
		// Multipart submission: a "trace" part plus an optional "lint"
		// part of staticavd candidates. The whole upload was already
		// size-bounded above, so the parts are too.
		body, lint, err = splitMultipart(ct, body)
		if err != nil {
			s.metrics.rejectedBody.Add(1)
			writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
			return
		}
	}
	tr, err := trace.DecodeBytes(body)
	if err != nil {
		s.metrics.rejectedBody.Add(1)
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	opts, err := parseRunOptions(r)
	if err != nil {
		s.metrics.rejectedBody.Add(1)
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	run, err := s.AdmitLint(tr, body, opts, lint)
	if err != nil {
		var ae *AdmitError
		if errors.As(err, &ae) {
			if ae.RetryAfter > 0 {
				w.Header().Set("Retry-After", strconv.Itoa(int((ae.RetryAfter+time.Second-1)/time.Second)))
			}
			writeJSON(w, ae.Status, errorBody{Error: ae.Msg})
			return
		}
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusAccepted, run.view(false))
}

// splitMultipart extracts the trace bytes and optional lint candidates
// from a multipart submission.
func splitMultipart(contentType string, body []byte) (traceBody []byte, lint []string, err error) {
	_, params, err := mime.ParseMediaType(contentType)
	if err != nil {
		return nil, nil, fmt.Errorf("bad multipart content type: %v", err)
	}
	boundary := params["boundary"]
	if boundary == "" {
		return nil, nil, errors.New("multipart upload lacks a boundary")
	}
	mr := multipart.NewReader(bytes.NewReader(body), boundary)
	for {
		part, err := mr.NextPart()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, nil, fmt.Errorf("reading multipart upload: %v", err)
		}
		data, err := io.ReadAll(part)
		part.Close()
		if err != nil {
			return nil, nil, fmt.Errorf("reading part %q: %v", part.FormName(), err)
		}
		switch part.FormName() {
		case "trace":
			traceBody = data
		case "lint":
			lint, err = parseLintUpload(data)
			if err != nil {
				return nil, nil, err
			}
		default:
			return nil, nil, fmt.Errorf("unknown multipart part %q (want trace, lint)", part.FormName())
		}
	}
	if traceBody == nil {
		return nil, nil, errors.New(`multipart upload lacks a "trace" part`)
	}
	return traceBody, lint, nil
}

// parseLintUpload decodes an uploaded lint document into candidate
// messages. Two shapes are accepted: a bare JSON array of message
// strings, and avd-lint -json output (packages → analyzers → findings),
// from which every finding is flattened to "posn: message".
func parseLintUpload(data []byte) ([]string, error) {
	data = bytes.TrimSpace(data)
	if len(data) == 0 {
		return nil, nil
	}
	if data[0] == '[' {
		var msgs []string
		if err := json.Unmarshal(data, &msgs); err != nil {
			return nil, fmt.Errorf("bad lint array: %v", err)
		}
		return msgs, nil
	}
	type lintFinding struct {
		Posn    string `json:"posn"`
		Message string `json:"message"`
	}
	type lintPackage struct {
		Findings map[string][]lintFinding `json:"findings"`
	}
	var tree map[string]lintPackage
	if err := json.Unmarshal(data, &tree); err != nil {
		return nil, fmt.Errorf("bad lint JSON (want an array of strings or avd-lint -json output): %v", err)
	}
	// Deterministic order: packages, then analyzers, sorted.
	var out []string
	pkgs := make([]string, 0, len(tree))
	for pkg := range tree {
		pkgs = append(pkgs, pkg)
	}
	sort.Strings(pkgs)
	for _, pkg := range pkgs {
		analyzers := make([]string, 0, len(tree[pkg].Findings))
		for a := range tree[pkg].Findings {
			analyzers = append(analyzers, a)
		}
		sort.Strings(analyzers)
		for _, a := range analyzers {
			for _, f := range tree[pkg].Findings[a] {
				msg := f.Message
				if f.Posn != "" {
					msg = f.Posn + ": " + msg
				}
				out = append(out, msg)
			}
		}
	}
	return out, nil
}

// parseRunOptions reads the per-run knobs from the submit query.
func parseRunOptions(r *http.Request) (RunOptions, error) {
	q := r.URL.Query()
	opts := RunOptions{Checker: q.Get("checker")}
	if v := q.Get("strict"); v != "" {
		b, err := strconv.ParseBool(v)
		if err != nil {
			return opts, fmt.Errorf("bad strict %q", v)
		}
		opts.Strict = b
	}
	if v := q.Get("deadline_ms"); v != "" {
		ms, err := strconv.ParseInt(v, 10, 64)
		if err != nil || ms < 0 {
			return opts, fmt.Errorf("bad deadline_ms %q", v)
		}
		opts.Deadline = time.Duration(ms) * time.Millisecond
	}
	if _, ok := opts.checkerKind(); !ok {
		return opts, fmt.Errorf("unknown checker %q", opts.Checker)
	}
	return opts, nil
}

// pathRun resolves the {id} path segment to a run, writing 400/404 on
// failure.
func (s *Service) pathRun(w http.ResponseWriter, r *http.Request) *Run {
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad run id"})
		return nil
	}
	run, ok := s.Get(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: fmt.Sprintf("no run %d", id)})
		return nil
	}
	return run
}

func (s *Service) handleList(w http.ResponseWriter, r *http.Request) {
	runs := s.Runs()
	views := make([]View, 0, len(runs))
	for _, run := range runs {
		views = append(views, run.view(false))
	}
	writeJSON(w, http.StatusOK, views)
}

func (s *Service) handleGet(w http.ResponseWriter, r *http.Request) {
	run := s.pathRun(w, r)
	if run == nil {
		return
	}
	writeJSON(w, http.StatusOK, run.view(true))
}

// handleReport serves the canonical text violation report of a terminal
// run: byte-identical to what offline replay (avd.ReplayTrace rendered
// with RenderReport) produces for the same trace and options.
func (s *Service) handleReport(w http.ResponseWriter, r *http.Request) {
	run := s.pathRun(w, r)
	if run == nil {
		return
	}
	if !run.Status().Terminal() {
		writeJSON(w, http.StatusConflict, errorBody{Error: "run not finished"})
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	RenderReport(w, run.Report())
}

func (s *Service) handleCancel(w http.ResponseWriter, r *http.Request) {
	run := s.pathRun(w, r)
	if run == nil {
		return
	}
	if _, ok := s.Cancel(run.ID()); !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "run vanished"})
		return
	}
	writeJSON(w, http.StatusOK, run.view(false))
}

func (s *Service) handleHealth(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ok")
}

// debugView is the payload of the debug endpoint: server-level gauges,
// chaos counters, and a per-run listing where every currently RUNNING
// run carries a live analysis snapshot from its Replayer.
type debugView struct {
	Metrics MetricsView `json:"metrics"`
	Chaos   any         `json:"chaos,omitempty"`
	Runs    []debugRun  `json:"runs"`
}

type debugRun struct {
	View
	Live *liveStats `json:"live,omitempty"`
}

// liveStats is the subset of a Replayer snapshot worth streaming.
type liveStats struct {
	Locations  int64 `json:"locations"`
	DPSTNodes  int   `json:"dpst_nodes"`
	Violations int64 `json:"violations"`
	Drops      int64 `json:"drops"`
	MemoryUsed int64 `json:"memory_used"`
	Saturated  bool  `json:"saturated,omitempty"`
}

// newLiveStats projects a Replayer snapshot onto the streamed subset
// shared by /debug/avd and the SSE snapshot frames.
func newLiveStats(snap avd.Snapshot) *liveStats {
	return &liveStats{
		Locations:  snap.Stats.Locations,
		DPSTNodes:  snap.Stats.DPSTNodes,
		Violations: snap.ViolationCount,
		Drops:      snap.Events.Drops,
		MemoryUsed: snap.MemoryUsed,
		Saturated:  snap.Saturated,
	}
}

func (s *Service) handleDebug(w http.ResponseWriter, r *http.Request) {
	runs := s.Runs()
	out := debugView{Metrics: s.Metrics(), Runs: make([]debugRun, 0, len(runs))}
	if cs := s.ChaosStats(); cs != (chaos.PlaneStats{}) {
		out.Chaos = cs
	}
	for _, run := range runs {
		dr := debugRun{View: run.view(false)}
		run.mu.Lock()
		rp := run.replayer
		run.mu.Unlock()
		if rp != nil {
			dr.Live = newLiveStats(rp.Snapshot())
		}
		out.Runs = append(out.Runs, dr)
	}
	writeJSON(w, http.StatusOK, out)
}
