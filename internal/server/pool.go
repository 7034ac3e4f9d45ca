package server

import (
	"context"
	"errors"
	"fmt"
	"time"

	avd "github.com/taskpar/avd"
)

// crashError wraps a recovered worker panic: the transient failure
// class that the retry loop is allowed to re-attempt. Everything else a
// run can return (context interruption, permanent analysis errors) is
// not retried.
type crashError struct {
	val any
}

// Error implements error.
func (e *crashError) Error() string { return fmt.Sprintf("worker panic: %v", e.val) }

// worker is one shard's executor goroutine: it drains the shard queue
// run by run until the queue is closed by Shutdown.
func (s *Service) worker(shard int) {
	defer s.wg.Done()
	for run := range s.shards[shard] {
		s.metrics.queued.Add(-1)
		s.metrics.perShardQueued[shard].Add(-1)
		s.execute(run)
	}
}

// execute moves one run through RUNNING to a terminal state, retrying
// transient worker crashes with jittered backoff up to the attempts
// cap. A panic anywhere in the analysis is contained to this run: the
// worker goroutine itself never dies.
func (s *Service) execute(run *Run) {
	run.mu.Lock()
	if run.status != StatusSubmitted {
		// Canceled while queued; nothing to do.
		run.mu.Unlock()
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), run.opts.Deadline)
	run.status = StatusRunning
	run.started = time.Now()
	run.cancel = cancel
	s.metrics.queueWait.Observe(run.started.Sub(run.created).Nanoseconds())
	run.mu.Unlock()
	defer cancel()
	s.metrics.inFlight.Add(1)
	defer s.metrics.inFlight.Add(-1)
	// Periodic live-analysis frames for stream subscribers, for the
	// run's whole execution (all attempts); the deferred cancel stops it.
	go s.snapshotLoop(ctx, run)

	for attempt := 1; ; attempt++ {
		run.mu.Lock()
		run.attempts = attempt
		run.mu.Unlock()
		if attempt > 1 {
			// The previous attempt crashed after possibly streaming
			// findings; tell subscribers to discard them before the
			// re-execution streams its own.
			run.hub.publish(StreamEvent{Kind: EventReset})
		}
		run.hub.publish(StreamEvent{Kind: EventState, Status: StatusRunning, Attempt: attempt})
		rep, err := s.attempt(ctx, run, attempt)
		var crash *crashError
		switch {
		case err == nil:
			s.finish(run, StatusDone, rep, "", false)
			return
		case errors.Is(err, avd.ErrCanceled):
			s.finishErr(run, StatusCanceled, rep, CodePartial, "canceled by client or drain", true)
			return
		case errors.Is(err, avd.ErrDeadline):
			s.finishErr(run, StatusFailed, rep, CodeDeadline, fmt.Sprintf("deadline %v exceeded", run.opts.Deadline), true)
			return
		case !errors.As(err, &crash):
			// Permanent analysis error: deterministic, retry is useless.
			s.finishErr(run, StatusFailed, rep, CodeWorkerCrash, err.Error(), false)
			return
		}
		s.metrics.workerPanics.Add(1)
		if attempt >= s.cfg.MaxAttempts {
			// The final attempt crashed: whatever it streamed is not in
			// the (empty) terminal report. Reset before the terminal
			// findings so a reduced stream matches /report.
			run.hub.publish(StreamEvent{Kind: EventReset})
			s.finishErr(run, StatusFailed, avd.Report{}, CodeWorkerCrash,
				fmt.Sprintf("worker crashed on all %d attempts: %v", attempt, err), false)
			return
		}
		s.metrics.retries.Add(1)
		select {
		case <-time.After(s.backoff(run.id, attempt)):
		case <-ctx.Done():
			// Cancel or deadline during backoff: the next attempt's
			// entry poll resolves it to the right terminal state.
		}
	}
}

// attempt runs one analysis of the run's trace, converting any panic —
// the checker's own or a chaos-injected worker crash — into a
// *crashError so the caller can classify it as transient.
func (s *Service) attempt(ctx context.Context, run *Run, attempt int) (rep avd.Report, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = &crashError{val: p}
		}
	}()
	// A context that expired between attempts (cancel or deadline during
	// backoff) resolves here, before any chaos draw, so the run reaches
	// the terminal state its context dictates instead of burning the
	// remaining attempts.
	if cerr := ctx.Err(); cerr != nil {
		if errors.Is(cerr, context.DeadlineExceeded) {
			return rep, avd.ErrDeadline
		}
		return rep, avd.ErrCanceled
	}
	if s.plane.CrashWorker(run.id, attempt) {
		panic(fmt.Sprintf("chaos: injected worker crash (run %d, attempt %d)", run.id, attempt))
	}
	kind, _ := run.opts.checkerKind() // validated at admission
	rp, err := avd.NewReplayer(avd.Options{
		Checker:          kind,
		StrictLockChecks: run.opts.Strict,
		MemoryBudget:     s.cfg.MemoryBudget,
		MaxViolations:    s.cfg.MaxViolations,
		// Stream violations as the checker admits them. hub.publish is
		// an append plus non-blocking wakes, satisfying the observer
		// contract (cheap, never blocks, no session re-entry); a slow
		// stream consumer can never slow the analysis down.
		Observer: &avd.Observer{
			OnViolation: func(v avd.Violation) {
				run.hub.publish(StreamEvent{Kind: EventFinding, Finding: streamFinding(v)})
			},
		},
	})
	if err != nil {
		return rep, err
	}
	run.mu.Lock()
	run.replayer = rp
	tr := run.tr
	run.mu.Unlock()
	defer func() {
		run.mu.Lock()
		run.replayer = nil
		run.mu.Unlock()
	}()
	return rp.Replay(ctx, tr)
}

// finish records a run's terminal state, findings, and report, and
// counts it in the metrics.
func (s *Service) finish(run *Run, st Status, rep avd.Report, errMsg string, partial bool) {
	s.finishWith(run, st, rep, errMsg, buildResults(rep, partial, run.lint))
}

// finishErr is finish for interrupted and failed runs: the terminal
// cause becomes the leading finding (ERROR for failures, WARN for
// cancellation), ahead of whatever the analyzed prefix found.
func (s *Service) finishErr(run *Run, st Status, rep avd.Report, code, msg string, partial bool) {
	sev := ResultError
	if st == StatusCanceled {
		sev = ResultWarn
	}
	results := append([]Result{{Status: sev, Code: code, Title: msg}}, buildResults(rep, partial, run.lint)...)
	s.finishWith(run, st, rep, msg, results)
}

func (s *Service) finishWith(run *Run, st Status, rep avd.Report, errMsg string, results []Result) {
	run.mu.Lock()
	run.status = st
	run.tr = nil // replay is the trace's only reader; a terminal run keeps only its report
	run.finished = time.Now()
	run.report = rep
	run.errMsg = errMsg
	run.results = results
	s.metrics.runDuration.Observe(run.finished.Sub(run.started).Nanoseconds())
	run.mu.Unlock()
	switch st {
	case StatusDone:
		// Only a fully completed analysis is memoized: failed and
		// canceled runs describe an interruption, not the trace.
		if run.cacheOK {
			s.cache.put(run.ckey, rep, results)
		}
		s.metrics.done.Add(1)
	case StatusFailed:
		s.metrics.failed.Add(1)
	case StatusCanceled:
		s.metrics.canceled.Add(1)
	}
	// Fold the executed analysis into the server-wide aggregates. Every
	// finishWith caller ran the analysis (cache hits terminate in Admit),
	// so the aggregates mirror exactly what the replayers measured.
	s.metrics.foldReport(rep)
	// Complete the stream: non-violation findings (violations already
	// streamed live from the checker's observer), the terminal
	// transition, then closure so subscribers drain and end.
	publishResults(run.hub, results, true)
	run.hub.publish(StreamEvent{Kind: EventState, Status: st})
	run.hub.close()
	s.notifyFindings(run, results)
}

// foldReport accumulates one executed run's terminal report into the
// server-wide analysis aggregates served on /metrics.
func (m *Metrics) foldReport(rep avd.Report) {
	m.anViolations.Add(rep.ViolationCount)
	m.anDrops.Add(rep.Drops.Locations + rep.Drops.Labels + rep.Drops.LCAEntries + rep.Drops.Violations)
	m.anTaskPanics.Add(rep.PanicCount)
	m.anLocations.Add(rep.Stats.Locations)
	m.anFilterHits.Add(rep.Stats.FilterHits)
	m.anFilterMisses.Add(rep.Stats.FilterMisses)
	m.anBatchFlushes.Add(rep.Stats.BatchFlushes)
	m.anBatchedAccesses.Add(rep.Stats.BatchedAccesses)
	m.anWindowElisions.Add(rep.Stats.WindowElisions)
}

// backoff computes the jittered exponential backoff before the next
// attempt: base<<(attempt-1) capped at one second, plus a deterministic
// jitter in [0, base) derived from (run, attempt) so tests are
// reproducible and a thundering herd of retries decorrelates.
func (s *Service) backoff(run int64, attempt int) time.Duration {
	base := s.cfg.RetryBackoff
	d := base << uint(attempt-1)
	if d > time.Second {
		d = time.Second
	}
	h := mix64(uint64(run)<<8 ^ uint64(attempt))
	return d + time.Duration(h%uint64(base))
}

// mix64 is the splitmix64 finalizer (the same full-avalanche hash the
// chaos plane uses for its decision streams).
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Shutdown gracefully drains the service: admission stops immediately
// (new uploads get 503 + Retry-After), the shard queues are closed, and
// queued plus in-flight runs are given until ctx's deadline to finish.
// When the deadline passes, every remaining run is canceled — queued
// runs turn CANCELED directly, running ones through their replay
// context — and Shutdown still waits for the workers to unwind (prompt,
// because the replay polls its context every few thousand events). On
// return no run is left SUBMITTED or RUNNING.
func (s *Service) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		for _, ch := range s.shards {
			close(ch)
		}
	}
	s.mu.Unlock()
	s.draining.Store(true)

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.stopWebhook()
		return nil
	case <-ctx.Done():
	}
	// Drain deadline passed: cancel everything still live.
	for _, r := range s.Runs() {
		r.mu.Lock()
		switch r.status {
		case StatusSubmitted:
			s.cancelQueuedLocked(r, "canceled by drain deadline")
		case StatusRunning:
			if r.cancel != nil {
				r.cancel()
			}
		}
		r.mu.Unlock()
	}
	<-done
	s.stopWebhook()
	return ctx.Err()
}

// Draining reports whether the service has begun shutting down.
func (s *Service) Draining() bool { return s.draining.Load() }
