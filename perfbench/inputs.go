package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"time"

	avd "github.com/taskpar/avd"
	"github.com/taskpar/avd/internal/bench"
	"github.com/taskpar/avd/internal/dpst"
	"github.com/taskpar/avd/internal/harness"
	"github.com/taskpar/avd/internal/oracle"
	"github.com/taskpar/avd/internal/server"
	"github.com/taskpar/avd/internal/sptest"
	"github.com/taskpar/avd/internal/trace"
)

// input is one upload with its known answer.
type input struct {
	name string
	body []byte
	// ref is the expected GET /report body: the offline avd.ReplayTrace
	// of the same trace under avd.Options{}, rendered by RenderReport.
	ref []byte
	rep avd.Report
	// sound records that the offline answer is the true one: zero
	// violations for a (race-free) kernel, the oracle's violated
	// locations for a findings program. A verdict on an unsound input
	// counts as wrong even when it matches ref.
	sound  bool
	client int // the serve-findings client whose share this program is
}

// findingsConfig shapes the serve-findings programs: about 550 events
// and 150-200 violations each.
var findingsConfig = sptest.GenConfig{
	MaxItems: 8, MaxDepth: 4, MaxSteps: 80,
	Locations: 48, MaxAccess: 12, Locks: 3, LockProb: 0.3,
}

// eventsPerProgram is the typical event count of a findingsConfig
// program.
const eventsPerProgram = 560

// setupInputs builds the workload's inputs cfg.setups times and returns
// the first repetition's inputs, the set-up times, a digest of the
// inputs, and the names of inputs whose bytes or answers differed
// between repetitions, which are therefore not a function of the seed.
// Each repetition also starts and drains one service, the set-up a
// deployment pays before its first upload.
func setupInputs(cfg config, clients int) (ins []input, setups []float64, digest string, unstable []string, err error) {
	var first []string
	for i := 0; i < cfg.setups; i++ {
		start := time.Now()
		var (
			got     []input
			digests []string
		)
		if cfg.workload == "serve-kernels" {
			got, digests, err = kernelInputs(cfg, i == 0)
		} else {
			got, digests, err = findingsInputs(cfg, clients, i == 0)
		}
		if err == nil {
			err = startService()
		}
		if err != nil {
			return nil, nil, "", nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		if i == 0 {
			ins, first = got, digests
			continue
		}
		for j, d := range digests {
			if d != first[j] && !slices.Contains(unstable, ins[j].name) {
				unstable = append(unstable, ins[j].name)
			}
		}
	}
	h := sha256.New()
	for _, d := range first {
		h.Write([]byte(d))
	}
	return ins, setups, fmt.Sprintf("%x", h.Sum(nil))[:16], unstable, nil
}

// kernelInputs records the 13 kernels at one worker, canonicalizes each
// trace so its bytes depend only on the program, and computes each
// offline reference. With keep false only the digests are kept.
func kernelInputs(cfg config, keep bool) ([]input, []string, error) {
	sizes := harness.Sizes(cfg.scale)
	var (
		out     []input
		digests []string
	)
	for _, k := range bench.All() {
		tr, err := harness.RecordKernelTrace(k, 1, sizes[k.Name])
		if err != nil {
			return nil, nil, err
		}
		canonicalize(tr)
		in, digest, err := makeInput(k.Name, tr, keep)
		if err != nil {
			return nil, nil, err
		}
		in.sound = in.rep.ViolationCount == 0
		out, digests = append(out, in), append(digests, digest)
	}
	return out, digests, nil
}

// canonicalize removes what varies between recordings of one program
// but is invisible to the analysis. The wall-clock Ts column is
// rewritten from the event index. Within each maximal run of one task's
// consecutive accesses, accesses are stably sorted by location: that
// keeps every location's access order, which is all the checker's
// per-location metadata sees, while undoing orders that come from
// iterating a Go map (delrefine's and fluidanimate's privatized merges).
func canonicalize(tr *trace.Trace) {
	ev := tr.Events
	for i := 0; i < len(ev); {
		j := i + 1
		if ev[i].Kind == trace.KAccess {
			for j < len(ev) && ev[j].Kind == trace.KAccess && ev[j].Task == ev[i].Task {
				j++
			}
			run := ev[i:j]
			sort.SliceStable(run, func(a, b int) bool { return run[a].Loc < run[b].Loc })
		}
		i = j
	}
	for i := range ev {
		ev[i].Ts = int64(i + 1)
	}
}

// findingsInputs generates each client's share of cfg.perClient distinct
// racy programs from the seed, with their offline references checked
// against the oracle. Only programs within a fifth of the typical event
// count are kept, so that the work of a pass, and the work per verdict,
// do not swing with how large one seed's programs happen to be.
func findingsInputs(cfg config, clients int, keep bool) ([]input, []string, error) {
	r := rand.New(rand.NewSource(cfg.seed))
	seen := make(map[string]bool)
	var (
		out     []input
		digests []string
	)
	for c := 0; c < clients; c++ {
		for n := 0; n < cfg.perClient; {
			p := sptest.Random(r, findingsConfig)
			tr, err := trace.FromProgram(p, r)
			if err != nil {
				return nil, nil, err
			}
			if d := len(tr.Events) - eventsPerProgram; 5*d > eventsPerProgram || -5*d > eventsPerProgram {
				continue
			}
			in, digest, err := makeInput(fmt.Sprintf("program-%d", len(seen)), tr, keep)
			if err != nil {
				return nil, nil, err
			}
			if seen[digest] {
				continue // every fresh upload must be a cache miss
			}
			seen[digest] = true
			n++
			in.client = c
			want := oracle.Violations(sptest.Build(dpst.ArrayLayout, p), oracle.ModePaper)
			got := make(map[int]bool)
			for _, v := range in.rep.Violations {
				got[int(v.Loc-trace.LocBase)] = true
			}
			in.sound = len(got) == len(want)
			for l := range want {
				in.sound = in.sound && got[l]
			}
			out, digests = append(out, in), append(digests, fmt.Sprintf("%s sound=%v", digest, in.sound))
		}
	}
	return out, digests, nil
}

// makeInput encodes tr, computes its offline reference report, and
// returns the input with a digest of both. With keep false the input
// carries no bytes, only its name and report.
func makeInput(name string, tr *trace.Trace, keep bool) (input, string, error) {
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		return input{}, "", fmt.Errorf("%s: encode: %w", name, err)
	}
	rep, err := avd.ReplayTrace(tr, avd.Options{})
	if err != nil {
		return input{}, "", fmt.Errorf("%s: offline replay: %w", name, err)
	}
	var ref bytes.Buffer
	server.RenderReport(&ref, rep)
	h := sha256.New()
	h.Write(buf.Bytes())
	h.Write([]byte{0})
	h.Write(ref.Bytes())
	digest := fmt.Sprintf("%x", h.Sum(nil))
	if !keep {
		return input{name: name, rep: rep}, digest, nil
	}
	return input{name: name, body: buf.Bytes(), ref: ref.Bytes(), rep: rep}, digest, nil
}

// startService starts a default service behind a loopback listener,
// waits until it answers /healthz, and drains it.
func startService() error {
	svc := server.New(server.Config{})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/healthz")
	if err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz: status %d", resp.StatusCode)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if serr := svc.Shutdown(ctx); err == nil {
		err = serr
	}
	http.DefaultClient.CloseIdleConnections()
	return err
}
