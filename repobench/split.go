package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"diestack/repobench/benchstats"
)

// layerReport accumulates the traced sample: per-request times summed
// over the requests re-run in process.
type layerReport struct {
	cold     bool
	requests int
	// e2e is the summed stackd latency of the sampled requests.
	e2e time.Duration
	// Cold workloads: core.RunExperiment, its encoding, the cache key,
	// the traced layer calls and the traced runs' wall time.
	run, encode, key time.Duration
	layers           Layers
	replays          int
	tracedWall       time.Duration
	// Hit workload: in-process handler and key time per request.
	handler     time.Duration
	overheadPct float64
	problems    []string
}

func (rep *layerReport) addCold(s Sent, u Untraced, l Layers, key time.Duration) {
	rep.requests++
	rep.e2e += s.Latency
	rep.run += u.Run
	rep.encode += u.Encode
	rep.key += key
	rep.tracedWall += l.Wall
	a := &rep.layers
	a.Generate += l.Generate
	a.Replay += l.Replay
	a.Raster += l.Raster
	a.Discretize += l.Discretize
	a.Solve += l.Solve
	a.Transient += l.Transient
	a.Table4 += l.Table4
	a.Records += l.Records
	a.Refs += l.Refs
	a.L2Hits += l.L2Hits
	a.L2Accesses += l.L2Accesses
	a.RowHits += l.RowHits
	a.RowAccesses += l.RowAccesses
	a.Solves += l.Solves
	a.Sweeps += l.Sweeps
	a.Recover += l.Recover
	if l.Refs > 0 {
		rep.replays++
	}
}

// checkCold re-computes sample in process, off the clock: every reply
// must be byte-equal to json of core.RunExperiment on the same request.
// When traced, each request is also re-run layer by layer, until
// budget has passed (at least two requests).
func checkCold(ctx context.Context, r *runner, sample []Sent, fails failures, traced bool, budget time.Duration) (*layerReport, error) {
	rep := &layerReport{cold: true}
	start := time.Now()
	for n, s := range sample {
		if traced && n >= 2 && time.Since(start) > budget {
			break
		}
		u, err := r.untraced(ctx, s.Req)
		if err != nil {
			fails.add(s.Index, "in-process run: %v", err)
			continue
		}
		if !bytes.Equal(u.Body, s.Body) {
			fails.add(s.Index, "reply differs from json of in-process core.RunExperiment")
		}
		if !traced {
			continue
		}
		key, err := keyTime(s.Req)
		if err != nil {
			return nil, err
		}
		l, err := r.traced(ctx, s.Req)
		if err != nil {
			return nil, fmt.Errorf("traced run of request %d: %w", s.Index, err)
		}
		if want, ok := headline(u.Value); !ok || want != l.Check {
			rep.problems = append(rep.problems, fmt.Sprintf(
				"traced run of request %d computed %v, core.RunExperiment %v", s.Index, l.Check, want))
		}
		rep.addCold(s, u, l, key)
	}
	return rep, ctx.Err()
}

// checkHit compares every kept hit reply with json of an in-process
// core.RunExperiment of its request; when traced it also times cache
// hits on an in-process handler.
func checkHit(ctx context.Context, r *runner, set []Request, sent []Sent, fails failures, traced bool) (*layerReport, error) {
	// Bodies alone can repeat across experiments ({"spec":{}}).
	id := func(r Request) string { return r.Experiment + " " + string(r.Body) }
	want := make(map[string][]byte, len(set))
	for _, req := range set {
		u, err := r.untraced(ctx, req)
		if err != nil {
			return nil, err
		}
		want[id(req)] = u.Body
	}
	lat := map[string][]float64{}
	for _, s := range sent {
		if s.Body != nil && !bytes.Equal(s.Body, want[id(s.Req)]) {
			fails.add(s.Index, "reply differs from json of in-process core.RunExperiment")
		}
		if s.Err == nil {
			lat[id(s.Req)] = append(lat[id(s.Req)], float64(s.Latency))
		}
	}
	rep := &layerReport{}
	if !traced {
		return rep, nil
	}
	hl, err := hitLayers(set, 2*time.Second)
	if err != nil {
		return nil, err
	}
	// Each entry contributes its median latency: thousands of
	// microsecond hits per entry, whose mean a few scheduler stalls
	// would dominate.
	for e, req := range set {
		l := lat[id(req)]
		if len(l) == 0 {
			continue
		}
		rep.requests++
		rep.e2e += time.Duration(benchstats.Median(l))
		rep.handler += hl.Handler[e]
		rep.key += hl.Key[e]
	}
	rep.overheadPct = hl.OverheadPct
	return rep, nil
}

// parts splits the median end-to-end latency p50 (ms) across the
// traced components in proportion to their summed time over the
// sample. The parts add up to p50 exactly; core.unattributed_ms and
// serve.overhead_ms are the residuals.
func (rep *layerReport) parts(p50 float64) []splitPart {
	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
	e2e := ms(rep.e2e)
	scale := 0.0
	if e2e > 0 {
		scale = p50 / e2e
	}
	p := func(name string, d time.Duration) splitPart {
		return splitPart{name, ms(d) * scale}
	}
	if !rep.cold {
		return []splitPart{
			p("serve.handler", rep.handler),
			p("serve.overhead", rep.e2e-rep.handler),
		}
	}
	l := rep.layers
	return []splitPart{
		p("workload.generate", l.Generate),
		p("memhier.replay", l.Replay),
		p("floorplan.raster", l.Raster),
		p("thermal.discretize", l.Discretize),
		p("thermal.solve", l.Solve),
		p("thermal.transient", l.Transient),
		p("uarch.table4", l.Table4),
		p("core.unattributed", rep.run-l.Sum()),
		p("core.encode", rep.encode),
		p("canon.key", rep.key),
		p("serve.overhead", rep.e2e-rep.run-rep.encode-rep.key),
	}
}

type splitPart struct {
	name string
	ms   float64
}

// metrics renders the per-layer metrics of a traced run.
func (rep *layerReport) metrics(p50 float64, sent []Sent, refsPerS float64) map[string]Metric {
	m := map[string]Metric{}
	for _, part := range rep.parts(p50) {
		switch part.name {
		case "canon.key", "serve.handler":
			m[part.name+"_us"] = Metric{part.ms * 1000, "us"}
		default:
			m[part.name+"_ms"] = Metric{part.ms, "ms"}
		}
	}
	if !rep.cold {
		// The handler time includes the key; report both on the hit path.
		m["canon.key_us"] = Metric{1000 * p50 * ratio(float64(rep.key), float64(rep.e2e)), "us"}
		for _, k := range []string{"workload.generate_ms", "memhier.replay_ms", "floorplan.raster_ms",
			"thermal.discretize_ms", "thermal.solve_ms", "thermal.transient_ms", "uarch.table4_ms",
			"core.unattributed_ms", "core.encode_ms"} {
			m[k] = Metric{0, "ms"}
		}
	} else {
		m["serve.handler_us"] = Metric{0, "us"}
	}
	l := rep.layers
	m["workload.records"] = Metric{ratio(float64(l.Records), float64(rep.replays)), "count"}
	m["memhier.ns_per_ref"] = Metric{ratio(float64(l.Replay.Nanoseconds()), float64(l.Refs)), "ns"}
	m["memhier.l2_hit_ratio"] = Metric{ratio(float64(l.L2Hits), float64(l.L2Accesses)), "ratio"}
	m["dram.row_hit_ratio"] = Metric{ratio(float64(l.RowHits), float64(l.RowAccesses)), "ratio"}
	m["thermal.cycles"] = Metric{ratio(float64(l.Sweeps), float64(l.Solves)), "count"}
	m["thermal.recoveries"] = Metric{float64(l.Recover), "count"}
	hits := 0
	for _, s := range sent {
		if s.Cache == "hit" {
			hits++
		}
	}
	m["serve.cache_hit_ratio"] = Metric{ratio(float64(hits), float64(len(sent))), "ratio"}
	overhead := rep.overheadPct
	if rep.cold {
		overhead = 100 * ratio(float64(rep.tracedWall-rep.run), float64(rep.run))
	}
	m["bench.trace_overhead_pct"] = Metric{overhead, "%"}
	m["sim_refs_per_s"] = Metric{refsPerS, "1/s"}
	return m
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// print shows the split of the median latency, residuals included.
func (rep *layerReport) print(p50 float64) {
	fmt.Printf("per-layer split of latency_p50_ms %.6g over %d traced request(s):\n", p50, rep.requests)
	sum := 0.0
	for _, part := range rep.parts(p50) {
		sum += part.ms
		fmt.Printf("  %-20s %12.6g ms %6.1f%%\n", part.name, part.ms, 100*ratio(part.ms, p50))
	}
	fmt.Printf("  %-20s %12.6g ms (latency_p50_ms %.6g)\n", "sum", sum, p50)
}
