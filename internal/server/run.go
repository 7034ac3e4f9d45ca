// Package server is the avd trace-checking service: a long-running HTTP
// front end that ingests recorded execution traces from many clients,
// checks each one offline on a sharded worker pool (every run under its
// own memory-budgeted Replayer), and exposes the results through a
// check-run lifecycle API modeled on bytebase's task-check-run state
// machine: SUBMITTED → RUNNING → DONE/FAILED/CANCELED, with per-finding
// WARN/ERROR severities and Explain() provenance.
//
// The robustness surface is the point of the package: bounded admission
// queues that answer 429 + Retry-After instead of growing, per-run
// deadlines and client cancellation threaded as a context through the
// replay, per-run panic containment (a poisoned trace fails its run,
// never the process), retry with jittered backoff for transient worker
// failures, size and validation limits on untrusted uploads before any
// allocation proportional to their claims, graceful drain on shutdown,
// and chaos fault points (worker crashes, injected queue overflow) so
// every failure mode is deterministically testable.
package server

import (
	"context"
	"strconv"
	"strings"
	"sync"
	"time"

	avd "github.com/taskpar/avd"
)

// Status is the lifecycle state of a check run. The machine is
// append-only left to right: SUBMITTED → RUNNING → one of the three
// terminal states; SUBMITTED may also jump straight to CANCELED (client
// cancel while queued) or FAILED (evicted, drain).
type Status string

// Check-run lifecycle states.
const (
	// StatusSubmitted is an admitted run waiting in its shard queue.
	StatusSubmitted Status = "SUBMITTED"
	// StatusRunning is a run currently executing on a shard worker.
	StatusRunning Status = "RUNNING"
	// StatusDone is a completed analysis — the trace was checked, and
	// the results (possibly ERROR-severity violations) are attached.
	StatusDone Status = "DONE"
	// StatusFailed is a run whose analysis could not be completed:
	// worker crashes beyond the retry cap, or a missed deadline.
	StatusFailed Status = "FAILED"
	// StatusCanceled is a run stopped by client cancellation or drain.
	StatusCanceled Status = "CANCELED"
)

// Terminal reports whether the state is final.
func (s Status) Terminal() bool {
	return s == StatusDone || s == StatusFailed || s == StatusCanceled
}

// ResultStatus grades one finding of a completed check run.
type ResultStatus string

// Finding severities.
const (
	// ResultSuccess is a clean finding (no violations).
	ResultSuccess ResultStatus = "SUCCESS"
	// ResultWarn is a degraded-but-usable finding (saturated analysis,
	// partial results at cancellation).
	ResultWarn ResultStatus = "WARN"
	// ResultError is a detected atomicity violation or a run failure.
	ResultError ResultStatus = "ERROR"
)

// level orders severities for LessThan.
func (s ResultStatus) level() int {
	switch s {
	case ResultSuccess:
		return 2
	case ResultWarn:
		return 1
	case ResultError:
		return 0
	}
	return -1
}

// LessThan reports whether s is more severe than r — ERROR is LessThan
// WARN — so callers can gate on a minimum acceptable severity.
func (s ResultStatus) LessThan(r ResultStatus) bool { return s.level() < r.level() }

// Result codes attached to findings.
const (
	// CodeOK marks the single SUCCESS finding of a clean run.
	CodeOK = "avd.ok"
	// CodeViolation marks one detected atomicity violation; Content
	// carries its Explain() provenance.
	CodeViolation = "avd.violation"
	// CodeSaturated warns that the analysis shed metadata or results
	// under its memory budget or violation cap: findings are sound but
	// possibly incomplete.
	CodeSaturated = "avd.saturated"
	// CodePartial warns that the run was interrupted (cancel, drain)
	// and the findings cover only a prefix of the trace.
	CodePartial = "avd.partial"
	// CodeDeadline marks a run failed by its deadline.
	CodeDeadline = "avd.deadline"
	// CodeWorkerCrash marks a run failed by worker crashes beyond the
	// retry cap (a poisoned trace, or injected chaos).
	CodeWorkerCrash = "avd.worker-crash"
)

// Result is one finding of a check run.
type Result struct {
	Status  ResultStatus `json:"status"`
	Code    string       `json:"code"`
	Title   string       `json:"title"`
	Content string       `json:"content,omitempty"`
}

// RunOptions are the per-run analysis knobs a client may set at
// submission (bounded by the service configuration).
type RunOptions struct {
	// Checker names the analysis: "optimized" (default), "basic", or
	// "velodrome".
	Checker string `json:"checker"`
	// Strict enables the strict-lock extension.
	Strict bool `json:"strict,omitempty"`
	// Deadline bounds the run's execution; zero means the service
	// default, and values above the service maximum are clamped.
	Deadline time.Duration `json:"deadline_ns,omitempty"`
}

// checkerKind maps the wire name to the avd option; ok is false for
// unknown names.
func (o RunOptions) checkerKind() (avd.CheckerKind, bool) {
	switch o.Checker {
	case "", "optimized":
		return avd.CheckerOptimized, true
	case "basic":
		return avd.CheckerBasic, true
	case "velodrome":
		return avd.CheckerVelodrome, true
	}
	return 0, false
}

// Run is one check run: an admitted trace moving through the lifecycle.
// All mutable state is guarded by mu; the worker, the HTTP handlers,
// and Cancel may touch a run concurrently.
type Run struct {
	mu sync.Mutex

	id      int64
	shard   int
	status  Status
	tr      *avd.Trace // nil once terminal: replay is its only reader
	traceSz int64      // encoded upload size, for views and shard stats
	opts    RunOptions

	created  time.Time
	started  time.Time
	finished time.Time

	attempts int
	results  []Result
	report   avd.Report
	errMsg   string

	// cancel interrupts the running replay; set while RUNNING. canceled
	// latches a client cancel that arrived while the run was queued.
	cancel   context.CancelFunc
	canceled bool

	// replayer is the live analysis while RUNNING, for debug snapshots.
	replayer *avd.Replayer

	// ckey identifies this run in the cross-run report cache; cacheOK
	// marks it eligible (the cache is enabled and the run was not itself
	// served from it).
	ckey    cacheKey
	cacheOK bool

	// hub is the run's live event stream (created at admission, closed
	// at terminality). It is immutable after Admit, so readers need no
	// lock.
	hub *streamHub

	// lint carries the staticavd candidate messages uploaded alongside
	// the trace; dynamic findings that confirm a candidate are annotated
	// with it.
	lint []string
}

// ID returns the run's identifier.
func (r *Run) ID() int64 { return r.id }

// Status returns the run's current lifecycle state.
func (r *Run) Status() Status {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.status
}

// Results returns the findings of a terminal run (nil before).
func (r *Run) Results() []Result {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Result(nil), r.results...)
}

// Report returns the analysis report of a terminal run (zero before
// completion; partial for canceled or deadline-failed runs).
func (r *Run) Report() avd.Report {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.report
}

// View is the JSON representation of a run served by the API.
type View struct {
	ID         int64      `json:"id"`
	Status     Status     `json:"status"`
	Shard      int        `json:"shard"`
	Attempts   int        `json:"attempts"`
	TraceBytes int64      `json:"trace_bytes"`
	Options    RunOptions `json:"options"`
	CreatedAt  time.Time  `json:"created_at"`
	StartedAt  *time.Time `json:"started_at,omitempty"`
	FinishedAt *time.Time `json:"finished_at,omitempty"`
	Error      string     `json:"error,omitempty"`
	Results    []Result   `json:"results,omitempty"`
	// Violations is the distinct violation count of a terminal run.
	Violations int64 `json:"violations"`
	// Saturated mirrors Report.Saturated: findings may be incomplete.
	Saturated bool `json:"saturated,omitempty"`
	// StaticCandidates counts the staticavd candidate messages uploaded
	// alongside the trace (0 when none were).
	StaticCandidates int `json:"static_candidates,omitempty"`
}

// view assembles the JSON representation. withResults controls whether
// the (potentially large) findings list is included.
func (r *Run) view(withResults bool) View {
	r.mu.Lock()
	defer r.mu.Unlock()
	v := View{
		ID:               r.id,
		Status:           r.status,
		Shard:            r.shard,
		Attempts:         r.attempts,
		TraceBytes:       r.traceSz,
		Options:          r.opts,
		CreatedAt:        r.created,
		Error:            r.errMsg,
		Violations:       r.report.ViolationCount,
		Saturated:        r.report.Saturated,
		StaticCandidates: len(r.lint),
	}
	if !r.started.IsZero() {
		t := r.started
		v.StartedAt = &t
	}
	if !r.finished.IsZero() {
		t := r.finished
		v.FinishedAt = &t
	}
	if withResults {
		v.Results = append([]Result(nil), r.results...)
	}
	return v
}

// buildResults converts a terminal report into the run's findings list:
// one ERROR per violation (title = the canonical one-line diagnostic,
// content = Explain() provenance), a WARN when the analysis saturated,
// and a single SUCCESS when nothing else was found. partial suppresses
// the SUCCESS finding — an interrupted run's empty prefix proves
// nothing — leaving the caller's interruption finding to lead. lint is
// the run's uploaded staticavd candidate list: a violation whose access
// pattern matches a compile-time candidate is annotated with it, tying
// the dynamic confirmation back to the static prediction.
func buildResults(rep avd.Report, partial bool, lint []string) []Result {
	var out []Result
	for _, v := range rep.Violations {
		res := Result{Status: ResultError, Code: CodeViolation, Title: v.String()}
		if v.Prov != nil {
			res.Content = v.Explain()
		}
		if m := matchCandidates(lint, v.Kind()); len(m) > 0 {
			if res.Content != "" {
				res.Content += "\n"
			}
			res.Content += "confirms static candidate:\n  " + strings.Join(m, "\n  ")
		}
		out = append(out, res)
	}
	if rep.Saturated {
		out = append(out, Result{
			Status: ResultWarn,
			Code:   CodeSaturated,
			Title:  "analysis saturated: results are sound but may be incomplete",
			Content: "drops: locations=" + strconv.FormatInt(rep.Drops.Locations, 10) +
				" labels=" + strconv.FormatInt(rep.Drops.Labels, 10) +
				" lca-entries=" + strconv.FormatInt(rep.Drops.LCAEntries, 10) +
				" violations=" + strconv.FormatInt(rep.Drops.Violations, 10),
		})
	}
	if len(out) == 0 && !partial {
		out = append(out, Result{Status: ResultSuccess, Code: CodeOK, Title: "no atomicity violations"})
	}
	return out
}

// matchCandidates returns the staticavd candidate messages whose
// predicted access pattern matches a dynamic violation's kind. Traces
// carry no variable names, so the join is by pattern: the candidate
// message embeds `pattern R-W-R`-style text produced by the same
// automaton vocabulary the checker's Kind() uses.
func matchCandidates(lint []string, kind string) []string {
	if len(lint) == 0 || kind == "" {
		return nil
	}
	var out []string
	needle := "pattern " + kind
	for _, msg := range lint {
		if strings.Contains(msg, needle) {
			out = append(out, msg)
		}
	}
	return out
}
