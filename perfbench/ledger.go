package main

import (
	"bytes"
	"context"
	"errors"
	"io"
	"time"

	avd "github.com/taskpar/avd"
	"github.com/taskpar/avd/internal/checker"
	"github.com/taskpar/avd/internal/dpst"
	"github.com/taskpar/avd/internal/sched"
	"github.com/taskpar/avd/internal/server"
	"github.com/taskpar/avd/internal/trace"
)

// maxBodyBytes is server.Config{}'s default upload limit; the decode
// ledger times trace.DecodeLimited at it, as the service's handler does.
const maxBodyBytes = 32 << 20

// nopSink discards replayed accesses: a replay into it builds only the
// DPST.
type nopSink struct{}

func (nopSink) Access(checker.TaskState, sched.Loc, bool) {}

// stepSampler keeps, per location, the first few distinct step nodes
// that accessed it: pairs of them are the MHP queries the checker asks.
type stepSampler struct{ steps map[sched.Loc][]dpst.NodeID }

const stepsPerLoc = 6

func (s *stepSampler) Access(ts checker.TaskState, loc sched.Loc, _ bool) {
	l := s.steps[loc]
	step := ts.StepNode()
	if len(l) < stepsPerLoc && (len(l) == 0 || l[len(l)-1] != step) {
		s.steps[loc] = append(l, step)
	}
}

// ledger times each layer's public entry points on the workload's own
// uploads, one input at a time, and derives the per-event costs.
func ledger(ins []input, t *tracer) []metric {
	var (
		events, accesses, decodedEvents, pairs, violations int
		bodyBytes                                          int
		decode, structure, full, par, encode               time.Duration
		explain, render                                    time.Duration
		stats                                              avd.Stats
		filterHits, filterMisses                           int64
	)
	for i := range ins {
		in := &ins[i]
		req := t.request()
		var (
			tr  *trace.Trace
			err error
		)
		d := t.timed("trace.decode", 0, req, func() {
			tr, err = trace.DecodeLimited(bytes.NewReader(in.body), maxBodyBytes)
		})
		if errors.Is(err, trace.ErrTooLarge) {
			// The service refuses this upload; decode it unbounded so the
			// replay layers are still measured on every input.
			tr, err = trace.Decode(bytes.NewReader(in.body))
		} else {
			decode += d
			if tr != nil {
				decodedEvents += len(tr.Events)
			}
		}
		if err != nil {
			continue // a reference was computed from this trace in set-up; it decodes
		}
		bodyBytes += len(in.body)
		events += len(tr.Events)
		for _, e := range tr.Events {
			if e.Kind == trace.KAccess {
				accesses++
			}
		}

		structure += t.timed("dpst.replay", 0, req, func() {
			_ = trace.Replay(tr, dpst.New(dpst.ArrayLayout), nopSink{}, nil)
		})
		var rep avd.Report
		full += t.timed("checker.replay", 0, req, func() {
			rp, rerr := avd.NewReplayer(avd.Options{})
			if rerr == nil {
				rep, _ = rp.Replay(context.Background(), tr)
			}
		})
		stats.Locations += rep.Stats.Locations
		stats.DPSTNodes += rep.Stats.DPSTNodes
		stats.LCAQueries += rep.Stats.LCAQueries
		filterHits += rep.Stats.FilterHits
		filterMisses += rep.Stats.FilterMisses

		tree := dpst.New(dpst.ArrayLayout)
		sampler := &stepSampler{steps: make(map[sched.Loc][]dpst.NodeID)}
		_ = trace.Replay(tr, tree, sampler, nil)
		q := dpst.NewQueryMode(tree, dpst.ModeLabels)
		var n int
		par += t.timed("dpst.par", 0, req, func() {
			for _, steps := range sampler.steps {
				for a := 0; a < len(steps); a++ {
					for b := a + 1; b < len(steps); b++ {
						q.Par(steps[a], steps[b])
						n++
					}
				}
			}
		})
		pairs += n

		encode += t.timed("trace.encode", 0, req, func() { _ = tr.Encode(io.Discard) })
		explain += t.timed("checker.explain", 0, req, func() {
			for _, v := range in.rep.Violations {
				_ = v.Explain()
			}
		})
		violations += len(in.rep.Violations)
		render += t.timed("server.render", 0, req, func() { server.RenderReport(io.Discard, in.rep) })
	}
	perEvent := func(d time.Duration, n int) float64 { return ratio(float64(d.Nanoseconds()), float64(n)) }
	return []metric{
		{"checker.ns_per_access", perEvent(full-structure, accesses), "ns", accesses},
		{"checker.filter_hit_ratio", ratio(float64(filterHits), float64(filterHits+filterMisses)), "ratio", int(filterHits + filterMisses)},
		{"checker.locations", float64(stats.Locations), "count", len(ins)},
		{"checker.explain_us", perEvent(explain, violations) / 1e3, "us", violations},
		{"dpst.nodes", float64(stats.DPSTNodes), "count", len(ins)},
		{"dpst.lca_queries", float64(stats.LCAQueries), "count", len(ins)},
		{"dpst.structure_ns_per_event", perEvent(structure, events), "ns", events},
		{"dpst.par_ns", perEvent(par, pairs), "ns", pairs},
		{"trace.bytes_per_event", ratio(float64(bodyBytes), float64(events)), "B", events},
		{"trace.decode_ns_per_event", perEvent(decode, decodedEvents), "ns", decodedEvents},
		{"trace.encode_ns_per_event", perEvent(encode, events), "ns", events},
		{"server.render_us", perEvent(render, len(ins)) / 1e3, "us", len(ins)},
	}
}
