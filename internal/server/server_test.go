package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	avd "github.com/taskpar/avd"
	"github.com/taskpar/avd/internal/chaos"
	"github.com/taskpar/avd/internal/server"
	"github.com/taskpar/avd/internal/sptest"
	"github.com/taskpar/avd/internal/trace"
)

// chaosAllCrash configures the chaos plane so every worker attempt
// crashes: the deterministic way to keep a run in the retry loop.
func chaosAllCrash() chaos.Config {
	return chaos.Config{Seed: 1, WorkerCrashProb: 1}
}

// genTrace generates the deterministic random trace of one seed (seed 4
// is known to contain violations; the CI obs-smoke job relies on it
// too) and returns it with its encoding.
func genTrace(t testing.TB, seed int64) (*trace.Trace, []byte) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	p := sptest.Random(r, sptest.GenConfig{
		MaxItems: 4, MaxDepth: 3, MaxSteps: 12,
		Locations: 3, MaxAccess: 4, Locks: 1, LockProb: 0.3,
	})
	tr, err := trace.FromProgram(p, r)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatalf("encode: %v", err)
	}
	return tr, buf.Bytes()
}

// testServer starts a service plus HTTP front end and arranges cleanup:
// the service is drained (generously) and the listener closed.
func testServer(t *testing.T, cfg server.Config) (*server.Service, *httptest.Server) {
	t.Helper()
	svc := server.New(cfg)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = svc.Shutdown(ctx)
		ts.Close()
	})
	return svc, ts
}

// submit POSTs body to the submit endpoint and decodes the response.
func submit(t *testing.T, ts *httptest.Server, body []byte, query string) (server.View, *http.Response) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/checkruns"+query, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	defer resp.Body.Close()
	var v server.View
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatalf("submit decode: %v", err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return v, resp
}

// poll fetches the run until it reaches a terminal state (or the
// timeout passes).
func poll(t *testing.T, ts *httptest.Server, id int64, timeout time.Duration) server.View {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		resp, err := http.Get(fmt.Sprintf("%s/v1/checkruns/%d", ts.URL, id))
		if err != nil {
			t.Fatalf("poll: %v", err)
		}
		var v server.View
		err = json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("poll decode: %v", err)
		}
		if v.Status.Terminal() {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("run %d not terminal after %v (status %s)", id, timeout, v.Status)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// getBody fetches a URL and returns status and body.
func getBody(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("get %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return resp.StatusCode, string(b)
}

// TestLifecycleDoneMatchesOffline is the acceptance anchor: a trace
// checked through the service must produce a byte-identical violation
// report to offline ReplayTrace with the same options, and its findings
// must carry ERROR severity with Explain() provenance.
func TestLifecycleDoneMatchesOffline(t *testing.T) {
	tr, body := genTrace(t, 4)
	_, ts := testServer(t, server.Config{})

	v, resp := submit(t, ts, body, "")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d, want 202", resp.StatusCode)
	}
	if v.Status != server.StatusSubmitted && v.Status != server.StatusRunning {
		t.Fatalf("fresh run status %s", v.Status)
	}
	final := poll(t, ts, v.ID, 10*time.Second)
	if final.Status != server.StatusDone {
		t.Fatalf("run finished %s (err %q), want DONE", final.Status, final.Error)
	}
	if final.Violations == 0 {
		t.Fatalf("seed-4 trace reported no violations")
	}

	// Findings: every violation is an ERROR with provenance content.
	nErr := 0
	for _, res := range final.Results {
		if res.Code == server.CodeViolation {
			nErr++
			if res.Status != server.ResultError {
				t.Fatalf("violation finding has severity %s", res.Status)
			}
			if !strings.Contains(res.Content, "pattern") {
				t.Fatalf("violation finding lacks Explain provenance: %q", res.Content)
			}
			if server.ResultWarn.LessThan(res.Status) {
				t.Fatalf("severity order broken: ERROR should be LessThan WARN")
			}
		}
	}
	if int64(nErr) != final.Violations {
		t.Fatalf("%d violation findings, view says %d", nErr, final.Violations)
	}

	// The canonical text report must be byte-identical to offline replay.
	code, got := getBody(t, fmt.Sprintf("%s/v1/checkruns/%d/report", ts.URL, v.ID))
	if code != http.StatusOK {
		t.Fatalf("report status %d", code)
	}
	rep, err := avd.ReplayTrace(tr, avd.Options{})
	if err != nil {
		t.Fatalf("offline replay: %v", err)
	}
	var want bytes.Buffer
	server.RenderReport(&want, rep)
	if got != want.String() {
		t.Fatalf("server report differs from offline replay:\n--- server ---\n%s--- offline ---\n%s", got, want.String())
	}
}

// TestSubmitRejectsBadUploads covers the untrusted-input surface:
// malformed, truncated, and oversized bodies, and bad options, all fail
// cleanly with 4xx — never a panic, never an admission.
func TestSubmitRejectsBadUploads(t *testing.T) {
	_, body := genTrace(t, 4)
	svc, ts := testServer(t, server.Config{MaxBodyBytes: int64(len(body))})

	cases := []struct {
		name  string
		body  []byte
		query string
		want  int
	}{
		{"garbage", []byte("not json at all"), "", http.StatusBadRequest},
		{"truncated", body[:len(body)/2], "", http.StatusBadRequest},
		{"oversized", append(append([]byte{}, body...), ' ', ' ', ' ', ' '), "", http.StatusRequestEntityTooLarge},
		{"negative-tasks", []byte(`{"tasks":-1,"events":[]}`), "", http.StatusBadRequest},
		{"huge-task-claim", []byte(`{"tasks":2000000000,"events":[]}`), "", http.StatusBadRequest},
		{"second-value", []byte(`{"tasks":1,"events":[]}{"tasks":-5}`), "", http.StatusBadRequest},
		{"trailing-garbage", []byte(`{"tasks":1,"events":[]} garbage`), "", http.StatusBadRequest},
		{"unknown-checker", body, "?checker=nonesuch", http.StatusBadRequest},
		{"bad-deadline", body, "?deadline_ms=minus-five", http.StatusBadRequest},
	}
	for _, tc := range cases {
		_, resp := submit(t, ts, tc.body, tc.query)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}
	if m := svc.Metrics(); m.Admitted != 0 {
		t.Fatalf("bad uploads were admitted: %+v", m)
	}
	// The service must still work after all that abuse.
	v, resp := submit(t, ts, body, "")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("good submit after abuse: status %d", resp.StatusCode)
	}
	if got := poll(t, ts, v.ID, 10*time.Second); got.Status != server.StatusDone {
		t.Fatalf("run after abuse finished %s", got.Status)
	}
}

// TestBackpressure fills a one-deep queue behind a worker pinned in
// retry backoff and checks the next admission is refused with 429 +
// Retry-After instead of queuing unboundedly.
func TestBackpressure(t *testing.T) {
	_, body := genTrace(t, 4)
	svc, ts := testServer(t, server.Config{
		Shards:       1,
		QueueDepth:   1,
		MaxAttempts:  3,
		RetryBackoff: 500 * time.Millisecond,
		Chaos:        chaosAllCrash(),
	})

	v1, resp := submit(t, ts, body, "")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("run 1: status %d", resp.StatusCode)
	}
	// Wait until the worker has picked run 1 up (it will crash and sit
	// in backoff for ~1s, far longer than this poll needs).
	waitStatus(t, ts, v1.ID, server.StatusRunning, 5*time.Second)

	if _, resp := submit(t, ts, body, ""); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("run 2 (queued): status %d", resp.StatusCode)
	}
	_, resp = submit(t, ts, body, "")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("run 3: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatalf("429 without Retry-After")
	}
	if m := svc.Metrics(); m.RejectedQueueFull == 0 {
		t.Fatalf("rejection not counted: %+v", m)
	}
}

// waitStatus polls until the run reports the wanted (non-terminal)
// status.
func waitStatus(t *testing.T, ts *httptest.Server, id int64, want server.Status, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		resp, err := http.Get(fmt.Sprintf("%s/v1/checkruns/%d", ts.URL, id))
		if err != nil {
			t.Fatalf("poll: %v", err)
		}
		var v server.View
		err = json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("poll decode: %v", err)
		}
		if v.Status == want {
			return
		}
		if v.Status.Terminal() || time.Now().After(deadline) {
			t.Fatalf("run %d reached %s while waiting for %s", id, v.Status, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCancelQueuedAndRunning exercises both cancellation paths: a
// queued run turns CANCELED without ever running, and a running run is
// interrupted through its replay context.
func TestCancelQueuedAndRunning(t *testing.T) {
	_, body := genTrace(t, 4)
	_, ts := testServer(t, server.Config{
		Shards:       1,
		QueueDepth:   4,
		MaxAttempts:  50,
		RetryBackoff: 200 * time.Millisecond,
		Chaos:        chaosAllCrash(),
	})

	v1, _ := submit(t, ts, body, "")
	waitStatus(t, ts, v1.ID, server.StatusRunning, 5*time.Second)
	v2, _ := submit(t, ts, body, "") // parked behind v1

	// Cancel the queued run: immediate CANCELED, never runs.
	resp, err := http.Post(fmt.Sprintf("%s/v1/checkruns/%d/cancel", ts.URL, v2.ID), "", nil)
	if err != nil {
		t.Fatalf("cancel: %v", err)
	}
	resp.Body.Close()
	if got := poll(t, ts, v2.ID, 2*time.Second); got.Status != server.StatusCanceled {
		t.Fatalf("queued run canceled to %s", got.Status)
	}

	// Cancel the running run: its context unwinds the retry loop.
	resp, err = http.Post(fmt.Sprintf("%s/v1/checkruns/%d/cancel", ts.URL, v1.ID), "", nil)
	if err != nil {
		t.Fatalf("cancel: %v", err)
	}
	resp.Body.Close()
	got := poll(t, ts, v1.ID, 5*time.Second)
	if got.Status != server.StatusCanceled {
		t.Fatalf("running run canceled to %s (err %q)", got.Status, got.Error)
	}
}

// TestDeadlineFailsRun pins the deadline path: a run whose attempts
// never succeed within its deadline turns FAILED with the deadline
// finding, not CANCELED and not stuck.
func TestDeadlineFailsRun(t *testing.T) {
	_, body := genTrace(t, 4)
	_, ts := testServer(t, server.Config{
		Shards:       1,
		MaxAttempts:  1000,
		RetryBackoff: 20 * time.Millisecond,
		Chaos:        chaosAllCrash(),
	})
	v, resp := submit(t, ts, body, "?deadline_ms=100")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	got := poll(t, ts, v.ID, 10*time.Second)
	if got.Status != server.StatusFailed {
		t.Fatalf("deadline run finished %s, want FAILED", got.Status)
	}
	found := false
	for _, r := range got.Results {
		if r.Code == server.CodeDeadline && r.Status == server.ResultError {
			found = true
		}
	}
	if !found {
		t.Fatalf("no deadline finding in %+v", got.Results)
	}
}

// TestDebugEndpoint checks the observability plane: metrics counters
// move, and the debug view parses with per-run entries.
func TestDebugEndpoint(t *testing.T) {
	_, body := genTrace(t, 4)
	svc, ts := testServer(t, server.Config{})
	v, _ := submit(t, ts, body, "")
	poll(t, ts, v.ID, 10*time.Second)

	code, out := getBody(t, ts.URL+"/debug/avd")
	if code != http.StatusOK {
		t.Fatalf("debug status %d", code)
	}
	var dv struct {
		Metrics server.MetricsView `json:"metrics"`
		Runs    []json.RawMessage  `json:"runs"`
	}
	if err := json.Unmarshal([]byte(out), &dv); err != nil {
		t.Fatalf("debug decode: %v", err)
	}
	if dv.Metrics.Admitted != 1 || dv.Metrics.Done != 1 {
		t.Fatalf("metrics off: %+v", dv.Metrics)
	}
	if len(dv.Runs) != 1 {
		t.Fatalf("%d runs in debug view", len(dv.Runs))
	}
	if m := svc.Metrics(); m.QueuedMax < 1 || m.InFlightMax < 1 {
		t.Fatalf("watermarks never rose: %+v", m)
	}

	if code, body := getBody(t, ts.URL+"/healthz"); code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("healthz: %d %q", code, body)
	}
}

// TestRegistryEviction bounds the retained-run registry: old terminal
// runs are evicted to admit new work, so the server's memory does not
// grow with its lifetime.
func TestRegistryEviction(t *testing.T) {
	_, body := genTrace(t, 4)
	_, ts := testServer(t, server.Config{MaxRuns: 2})
	var last int64
	for i := 0; i < 5; i++ {
		v, resp := submit(t, ts, body, "")
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: status %d", i, resp.StatusCode)
		}
		poll(t, ts, v.ID, 10*time.Second)
		last = v.ID
	}
	code, out := getBody(t, ts.URL+"/v1/checkruns")
	if code != http.StatusOK {
		t.Fatalf("list: %d", code)
	}
	var views []server.View
	if err := json.Unmarshal([]byte(out), &views); err != nil {
		t.Fatalf("list decode: %v", err)
	}
	if len(views) > 2 {
		t.Fatalf("registry holds %d runs, bound is 2", len(views))
	}
	if views[len(views)-1].ID != last {
		t.Fatalf("newest run evicted instead of oldest")
	}
}
