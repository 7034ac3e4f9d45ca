package server

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"github.com/taskpar/avd/internal/chaos"
	"github.com/taskpar/avd/internal/sptest"
	"github.com/taskpar/avd/internal/trace"
)

// TestTerminalRunsReleaseTrace: replay is the only reader of a run's
// decoded trace, so no terminal run may keep it — a registry of
// finished runs must not pin every upload's events. Each terminal path
// is driven: DONE, a cache-served DONE, FAILED, and CANCELED both while
// queued and while running.
func TestTerminalRunsReleaseTrace(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	p := sptest.Random(r, sptest.GenConfig{
		MaxItems: 4, MaxDepth: 3, MaxSteps: 12,
		Locations: 3, MaxAccess: 4, Locks: 1, LockProb: 0.3,
	})
	tr, err := trace.FromProgram(p, r)
	if err != nil {
		t.Fatal(err)
	}
	body := []byte("upload bytes")
	allCrash := chaos.Config{Seed: 1, WorkerCrashProb: 1}

	start := func(t *testing.T, cfg Config) *Service {
		svc := New(cfg)
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			_ = svc.Shutdown(ctx)
		})
		return svc
	}
	admit := func(t *testing.T, svc *Service) *Run {
		t.Helper()
		run, err := svc.Admit(tr, body, RunOptions{})
		if err != nil {
			t.Fatalf("admit: %v", err)
		}
		return run
	}
	wait := func(t *testing.T, run *Run, want Status) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for run.Status() != want {
			if st := run.Status(); st.Terminal() || time.Now().After(deadline) {
				t.Fatalf("run %d is %s, want %s", run.id, st, want)
			}
			time.Sleep(time.Millisecond)
		}
	}
	holdsTrace := func(run *Run) bool {
		run.mu.Lock()
		defer run.mu.Unlock()
		return run.tr != nil
	}
	released := func(t *testing.T, run *Run, what string) {
		t.Helper()
		if holdsTrace(run) {
			t.Errorf("%s run %d still holds its trace", what, run.id)
		}
	}

	t.Run("done", func(t *testing.T) {
		svc := start(t, Config{Shards: 1})
		run := admit(t, svc)
		wait(t, run, StatusDone)
		released(t, run, "DONE")
		hit := admit(t, svc)
		if svc.metrics.cacheHits.Load() != 1 || hit.Status() != StatusDone {
			t.Fatalf("identical resubmission not served from the cache (status %s)", hit.Status())
		}
		released(t, hit, "cache-served")
	})
	t.Run("failed", func(t *testing.T) {
		svc := start(t, Config{Shards: 1, MaxAttempts: 1, Chaos: allCrash})
		run := admit(t, svc)
		wait(t, run, StatusFailed)
		released(t, run, "FAILED")
	})
	t.Run("canceled", func(t *testing.T) {
		svc := start(t, Config{Shards: 1, MaxAttempts: 50, RetryBackoff: 200 * time.Millisecond, Chaos: allCrash})
		running := admit(t, svc)
		wait(t, running, StatusRunning)
		queued := admit(t, svc) // parked behind the retrying run
		if !holdsTrace(queued) {
			t.Fatalf("queued run lost its trace before it ran")
		}
		if st, _ := svc.Cancel(queued.id); st != StatusCanceled {
			t.Fatalf("queued run canceled to %s", st)
		}
		released(t, queued, "queued CANCELED")
		svc.Cancel(running.id)
		wait(t, running, StatusCanceled)
		released(t, running, "running CANCELED")
	})
}
