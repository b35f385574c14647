package main

import (
	"encoding/json"
	"fmt"
)

// DefaultSeed is the workload seed the pinned table (pinned.json) was
// captured on.
const DefaultSeed = 1

// Request is one generated request: the catalog experiment it targets
// and the exact body sent to POST /v1/experiments/<Experiment>.
type Request struct {
	Experiment string
	Body       []byte
}

// Workload is one seeded traffic mix, sent by one closed-loop client
// as requests 0, 1, 2, ... README.md gives each one's rationale.
type Workload struct {
	Name string
	// RSSAfter is how many replies the server has sent when its peak
	// RSS is read: a count every run reaches, so the reading covers the
	// same work on a fast server as on a slow one. Read at the end of
	// the run, memory would grow with throughput (thermal workspaces,
	// garbage), and a faster server would read as a fatter one.
	RSSAfter int
	// Request returns the i-th request of the sequence; it is a pure
	// function of (seed, i). Nil for set-based workloads.
	Request func(seed uint64, i int) Request
	// Set returns the warm set of a cache-hit workload; the client cycles
	// through it. Nil for cold workloads.
	Set func(seed uint64) []Request
}

// Cold reports whether every request is new to the server.
func (w Workload) Cold() bool { return w.Set == nil }

// Workloads lists the benchmark's traffic mixes.
func Workloads() []Workload {
	return []Workload{
		{Name: "replay", RSSAfter: 40, Request: replayRequest},
		{Name: "thermal", RSSAfter: 8, Request: thermalRequest},
		{Name: "logic", RSSAfter: 6, Request: logicRequest},
		{Name: "hit", RSSAfter: 10000, Set: hitSet},
	}
}

// WorkloadByName looks a workload up.
func WorkloadByName(name string) (Workload, error) {
	for _, w := range Workloads() {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("unknown workload %q (have replay, thermal, logic, hit)", name)
}

var capacitiesMB = []int{4, 12, 32, 64}

// mix is splitmix64 over (seed, stream, i): a stateless, seeded hash
// used for every draw, so request i never depends on how many requests
// came before it.
func mix(seed uint64, stream, i int) uint64 {
	z := seed*0x9E3779B97F4A7C15 + uint64(stream)*0xBF58476D1CE4E5B9 + uint64(i) + 1
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// unit maps a draw onto [0, 1).
func unit(seed uint64, stream, i int) float64 {
	return float64(mix(seed, stream, i)>>11) / (1 << 53)
}

// stratum returns the i-th slot of a seeded stratified cycle over n
// slots: each consecutive block of n indices visits every slot once,
// in a fresh seeded order per block. It keeps short runs covering the
// whole input range, so run-to-run variation comes from the system,
// not from which inputs a seed happened to draw.
func stratum(seed uint64, stream, i, n int) int {
	block := i / n
	perm := make([]int, n)
	for k := range perm {
		perm[k] = k
	}
	for k := n - 1; k > 0; k-- {
		j := int(mix(seed, stream, block*n+k) % uint64(k+1))
		perm[k], perm[j] = perm[j], perm[k]
	}
	return perm[i%n]
}

// traceSeed is a fresh, nonzero trace/profile seed for request i.
func traceSeed(seed uint64, stream, i int) uint64 {
	return mix(seed, stream, i)>>1 | 1
}

type specBody struct {
	Seed   uint64  `json:"seed,omitempty"`
	Scale  float64 `json:"scale,omitempty"`
	Grid   int     `json:"grid,omitempty"`
	Method string  `json:"method,omitempty"`
}

type requestBody struct {
	Spec   specBody `json:"spec"`
	Params any      `json:"params,omitempty"`
}

func newRequest(exp string, spec specBody, params any) Request {
	b, err := json.Marshal(requestBody{Spec: spec, Params: params})
	if err != nil {
		panic(fmt.Sprintf("repobench: encoding %s request: %v", exp, err))
	}
	return Request{Experiment: exp, Body: b}
}

// Draw streams; each kind of draw has its own so adding one never
// shifts another.
const (
	streamTraceSeed = iota + 1
	streamSlot
	streamK
	streamTmax
	streamHit
)

// The six kernels whose replays cost 0.4–1.5 s, and the six that cost
// 0.04–0.25 s (scale 1.0, one core).
var (
	slowKernels = []string{"gauss", "pcg", "sMVM", "sTrans", "sUS", "svm"}
	fastKernels = []string{"conj", "dSym", "sSym", "sAVDF", "sAVIF", "svd"}
)

// replayRequest: memory-perf over the 12 kernels × 4 capacities at
// scale 1.0, a fresh trace seed each time, in a fixed cycle of all 48
// combinations: the 24 slow ones first, then the 24 fast ones, each
// half visiting its six kernels in turn with every capacity. The order
// is fixed rather than seeded because the two kernel classes are
// separated by a gap, so the latency median depends on how many of
// each class a run completes; a run completes 1.1–1.3 cycles, and
// starting each cycle with the slow half keeps its median inside the
// slow class instead of in the gap, where it would jump from run to
// run.
func replayRequest(seed uint64, i int) Request {
	pos := i % (2 * 24)
	class, k := slowKernels, pos
	if pos >= 24 {
		class, k = fastKernels, pos-24
	}
	capacity := (k/len(class) + k) % len(capacitiesMB)
	return newRequest("memory-perf",
		specBody{Seed: traceSeed(seed, streamTraceSeed, i), Scale: 1},
		map[string]any{"benchmark": class[k%len(class)], "capacity_mb": capacitiesMB[capacity]})
}

// thermalStrata splits the 3–60 W/mK conductivity range so each block
// of 2·thermalStrata requests covers both layers across the range.
const thermalStrata = 6

// thermalRequest: one fig3 point at the default grid and solver, layer
// and conductivity drawn continuously from 3–60 W/mK.
func thermalRequest(seed uint64, i int) Request {
	slot := stratum(seed, streamSlot, i, 2*thermalStrata)
	layer := []string{"cu-metal", "bond"}[slot%2]
	k := 3 + 57*(float64(slot/2)+unit(seed, streamK, i))/thermalStrata
	return newRequest("fig3", specBody{},
		map[string]any{"layer": layer, "conductivities": []float64{k}})
}

// DTMSteps shortens the managed transient from the default 240 samples
// to 72 (18 s of simulated time at the 0.25 s default step), which
// makes a DTM request take about as long as a table4 request: the
// latency median then sits inside one cluster of samples instead of
// between two.
const DTMSteps = 72

// HoldMarginC is how far above Tmax a managed peak may read and still
// count as held.
const HoldMarginC = 1

// DTMVariants pairs each logic variant with a Tmax range its
// controller holds: the managed peak stays within HoldMarginC of the
// ceiling.
var DTMVariants = []struct {
	Name  string
	TmaxC [2]float64
}{
	{"planar", [2]float64{92, 100}},
	{"3d", [2]float64{101, 110}},
	{"3d-worstcase", [2]float64{126, 135}},
}

// logicRequest alternates table4 (fresh seed, default instruction
// count) with managed-logic-thermal at grid 32, cycling the variants.
func logicRequest(seed uint64, i int) Request {
	if i%2 == 0 {
		return newRequest("table4", specBody{Seed: traceSeed(seed, streamTraceSeed, i)}, nil)
	}
	v := DTMVariants[(i/2+int(seed%3))%len(DTMVariants)]
	tmax := v.TmaxC[0] + (v.TmaxC[1]-v.TmaxC[0])*unit(seed, streamTmax, i)
	return newRequest("managed-logic-thermal", specBody{Grid: 32},
		map[string]any{"variant": v.Name, "tmax_c": tmax, "steps": DTMSteps})
}

// hitSet is the warm set of the hit workload: 29 cheap, distinct
// requests, three of them 74 KB temperature maps.
func hitSet(seed uint64) []Request {
	var out []Request
	skip := int(mix(seed, streamHit, 0) % uint64(len(capacitiesMB)))
	for n, c := range capacitiesMB {
		if n != skip {
			out = append(out, newRequest("memory-thermal-map",
				specBody{Grid: 64, Method: "multigrid"}, map[string]any{"capacity_mb": c}))
		}
	}
	for n, b := range []string{"conj", "dSym", "sSym", "sAVDF", "sAVIF", "svd"} {
		out = append(out, newRequest("memory-perf",
			specBody{Seed: traceSeed(seed, streamHit, 100+n), Scale: 0.1},
			map[string]any{
				"benchmark":   b,
				"capacity_mb": capacitiesMB[mix(seed, streamHit, 200+n)%uint64(len(capacitiesMB))],
			}))
	}
	for n := 0; n < 8; n++ {
		k := 3 + 57*unit(seed, streamHit, 300+n)
		out = append(out, newRequest("fig3", specBody{Grid: 8},
			map[string]any{"layer": []string{"cu-metal", "bond"}[n%2], "conductivities": []float64{k}}))
	}
	for _, g := range []int{8, 12} {
		for _, v := range DTMVariants {
			out = append(out, newRequest("logic-thermal", specBody{Grid: g}, map[string]any{"variant": v.Name}))
		}
	}
	for _, c := range capacitiesMB {
		out = append(out, newRequest("memory-thermal", specBody{Grid: 8}, map[string]any{"capacity_mb": c}))
	}
	out = append(out,
		newRequest("wire-derivation", specBody{}, nil),
		newRequest("power-derivation", specBody{}, nil))
	return out
}

// Source returns the workload's request sequence for one seed. On hit
// it walks one seeded order of the warm set, round and round.
func (w Workload) Source(seed uint64) func(i int) Request {
	if w.Cold() {
		return func(i int) Request { return w.Request(seed, i) }
	}
	set := w.Set(seed)
	order := make([]int, len(set))
	for k := range order {
		order[k] = stratum(seed, streamHit, k, len(set))
	}
	return func(i int) Request { return set[order[i%len(set)]] }
}
