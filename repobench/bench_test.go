package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"testing"
	"time"

	"diestack/internal/canon"
	"diestack/internal/core"
	"diestack/internal/serve"
)

// requests returns the first n requests of w's sequence (its warm set
// for hit).
func requests(w Workload, seed uint64, n int) []Request {
	if !w.Cold() {
		return w.Set(seed)
	}
	out := make([]Request, n)
	for i := range out {
		out[i] = w.Request(seed, i)
	}
	return out
}

func cacheKey(t *testing.T, r Request) string {
	t.Helper()
	exp, ok := core.ExperimentByName(r.Experiment)
	if !ok {
		t.Fatalf("unknown experiment %q", r.Experiment)
	}
	er, err := exp.DecodeRequest(r.Body)
	if err != nil {
		t.Fatalf("%s %s: %v", r.Experiment, r.Body, err)
	}
	c, err := exp.EncodeRequest(er)
	if err != nil {
		t.Fatal(err)
	}
	return canon.HashBytes(c)
}

func TestSameSeedSameRequests(t *testing.T) {
	for _, w := range Workloads() {
		a, b := requests(w, 7, 300), requests(w, 7, 300)
		for i := range a {
			if a[i].Experiment != b[i].Experiment || !bytes.Equal(a[i].Body, b[i].Body) {
				t.Fatalf("%s request %d differs between two generations of seed 7", w.Name, i)
			}
		}
		other := requests(w, 8, 300)
		same := 0
		for i := range a {
			if bytes.Equal(a[i].Body, other[i].Body) {
				same++
			}
		}
		if same == len(a) {
			t.Errorf("%s: seeds 7 and 8 give identical requests", w.Name)
		}
	}
}

// TestColdRequestsNeverHit: every request of a cold workload has its own
// canonical hash, so none can be answered from stackd's result cache.
func TestColdRequestsNeverHit(t *testing.T) {
	for _, w := range Workloads() {
		if !w.Cold() {
			continue
		}
		for _, seed := range []uint64{DefaultSeed, 2, 3} {
			seen := map[string]int{}
			for i, r := range requests(w, seed, 1000) {
				k := cacheKey(t, r)
				if j, dup := seen[k]; dup {
					t.Fatalf("%s seed %d: requests %d and %d share cache key %s", w.Name, seed, j, i, k)
				}
				seen[k] = i
			}
		}
	}
}

// TestHitSetFitsCache: the warm set is distinct and smaller than the
// default LRU, so after warm-up every request is a hit.
func TestHitSetFitsCache(t *testing.T) {
	w, err := WorkloadByName("hit")
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []uint64{DefaultSeed, 2, 3} {
		set := w.Set(seed)
		if len(set) >= serve.DefaultCacheEntries {
			t.Fatalf("hit set of %d requests does not fit the %d-entry cache", len(set), serve.DefaultCacheEntries)
		}
		seen := map[string]bool{}
		big := 0
		for _, r := range set {
			k := cacheKey(t, r)
			if seen[k] {
				t.Fatalf("seed %d: hit set repeats %s", seed, r.Body)
			}
			seen[k] = true
			if r.Experiment == "memory-thermal-map" {
				big++
			}
		}
		if big == 0 {
			t.Errorf("seed %d: hit set has no map-sized reply", seed)
		}
		src := w.Source(seed)
		for i := 0; i < 4*len(set); i++ {
			if k := cacheKey(t, src(i)); !seen[k] {
				t.Fatalf("stream request %d is outside the warm set", i)
			}
		}
	}
}

func TestLogicAlternates(t *testing.T) {
	w, _ := WorkloadByName("logic")
	for i := 1; i < 24; i++ {
		if a, b := w.Request(DefaultSeed, i-1).Experiment, w.Request(DefaultSeed, i).Experiment; a == b {
			t.Fatalf("requests %d and %d are both %s", i-1, i, a)
		}
	}
}

// TestMetricsMatchBenchmarkJSON: a run reports exactly the metrics
// BENCHMARK.json declares, with the declared units.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type spec struct{ Name, Unit string }
	var b struct {
		EndToEnd []spec `json:"end_to_end"`
		PerLayer []spec `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	same := func(what string, specs []spec, got map[string]Metric) {
		if len(got) != len(specs) {
			t.Errorf("%s: %d metrics reported, %d declared", what, len(got), len(specs))
		}
		for _, s := range specs {
			if m, ok := got[s.Name]; !ok || m.Unit != s.Unit {
				t.Errorf("%s: %s reported as %+v (present %v), declared unit %s", what, s.Name, m, ok, s.Unit)
			}
		}
	}
	lr := LoadResult{Sent: []Sent{{Latency: time.Millisecond}}, Busy: time.Second}
	same("end to end", b.EndToEnd, endToEnd(lr, []float64{1}, []float64{0.1}, 50))
	for _, cold := range []bool{true, false} {
		rep := &layerReport{cold: cold, e2e: time.Millisecond, run: time.Millisecond}
		same(fmt.Sprintf("per layer (cold %v)", cold), b.PerLayer, rep.metrics(1, lr.Sent, 0))
	}
}

// TestSplitAddsUp: the traced parts, residuals included, add up to the
// median latency they split.
func TestSplitAddsUp(t *testing.T) {
	rep := &layerReport{cold: true, e2e: 900 * time.Millisecond, run: 700 * time.Millisecond,
		encode: time.Millisecond, key: time.Millisecond,
		layers: Layers{Generate: 200 * time.Millisecond, Replay: 450 * time.Millisecond}}
	sum := 0.0
	for _, p := range rep.parts(250) {
		sum += p.ms
	}
	if math.Abs(sum-250) > 1e-9 {
		t.Errorf("parts add up to %v ms, want 250", sum)
	}
}
