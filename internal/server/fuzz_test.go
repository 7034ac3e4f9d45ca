package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/taskpar/avd/internal/server"
)

// FuzzSubmitUpload drives arbitrary bytes through the full upload and
// validation path — MaxBytesReader, DecodeBytes, structural
// validation, admission — and checks the handler's contract: it never
// panics, answers only the documented statuses, and never admits a body
// that fails validation. Valid-looking inputs that do get admitted must
// then terminate (the worker must survive whatever the trace encodes).
func FuzzSubmitUpload(f *testing.F) {
	_, good := genTrace(f, 4)
	f.Add(good)
	f.Add([]byte(`{"tasks":1,"events":[]}`))
	f.Add([]byte(`{"tasks":-1,"events":[]}`))
	f.Add([]byte(`{"tasks":2000000000,"events":[]}`))
	f.Add([]byte(`{`))
	f.Add([]byte(``))
	f.Add([]byte(`[1,2,3]`))
	f.Add(good[:len(good)/2])

	svc := server.New(server.Config{
		Shards:       1,
		MaxBodyBytes: 1 << 16,
		MaxAttempts:  1,
	})
	mux := svc.Handler()
	f.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = svc.Shutdown(ctx)
	})

	f.Fuzz(func(t *testing.T, body []byte) {
		req := httptest.NewRequest("POST", "/v1/checkruns", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, req)
		switch rec.Code {
		case http.StatusAccepted:
			// Admitted: the run must reach a terminal state. Poll the
			// registry directly (no live server in fuzz mode).
			var v server.View
			if err := json.NewDecoder(rec.Body).Decode(&v); err != nil {
				t.Fatalf("202 with undecodable body: %v", err)
			}
			run, ok := svc.Get(v.ID)
			if !ok {
				t.Fatalf("admitted run %d not registered", v.ID)
			}
			deadline := time.Now().Add(10 * time.Second)
			for !run.Status().Terminal() {
				if time.Now().After(deadline) {
					t.Fatalf("admitted run %d stuck %s", v.ID, run.Status())
				}
				time.Sleep(time.Millisecond)
			}
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge,
			http.StatusTooManyRequests, http.StatusServiceUnavailable:
			// Documented refusals.
		default:
			t.Fatalf("undocumented status %d for %q", rec.Code, truncate(body))
		}
	})
}

func truncate(b []byte) []byte {
	if len(b) > 64 {
		return b[:64]
	}
	return b
}
