// Command compare sets two groups of repobench runs side by side: per
// metric and workload it prints each side's median and quartiles, how
// many run pairs the second side won, and a verdict.
//
//	go run ./compare -benchmark ../BENCHMARK.json parent-runs/ change-runs/
//
// Each directory holds one file per run: that run's standard output,
// whose provenance line names the workload and seed and whose last
// line is the result JSON. Runs pair by seed.
//
// Verdicts follow the sandbox rule for claiming a gain:
//   - better: the change wins at least 9 of 10 pairs (ties count for
//     neither) and the medians differ by more than the parent's
//     interquartile spread; or every change run beats every parent run;
//   - worse: the change's median is worse than the parent's by more than
//     the metric's bound;
//   - unresolved: the parent's own spread (interquartile range over
//     median) is wider than the bound, or the metric has no bound;
//   - within bound: otherwise.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"diestack/repobench/benchstats"
)

// spec is one metric of BENCHMARK.json.
type spec struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

type benchmarkFile struct {
	EndToEnd []spec `json:"end_to_end"`
	PerLayer []spec `json:"per_layer"`
}

// run is one parsed run.
type run struct {
	workload string
	seed     uint64
	metrics  map[string]float64
}

func main() {
	benchPath := flag.String("benchmark", "BENCHMARK.json", "BENCHMARK.json holding the metric bounds")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: compare [-benchmark BENCHMARK.json] parent-dir change-dir")
		os.Exit(2)
	}
	specs, err := loadSpecs(*benchPath)
	if err != nil {
		fatal(err)
	}
	a, err := loadRuns(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	b, err := loadRuns(flag.Arg(1))
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%-8s %-22s %-32s %-32s %5s  %s\n", "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "wins", "verdict")
	for _, wl := range workloads(a, b) {
		for _, s := range specs {
			av, bv, pairs := values(a, wl, s.Name), values(b, wl, s.Name), pair(a, b, wl, s.Name)
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			c := compare(s, av, bv, pairs)
			fmt.Printf("%-8s %-22s %-32s %-32s %2d/%-2d  %s\n", wl, s.Name, summary(av), summary(bv), c.wins, len(pairs), c.verdict)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "compare:", err)
	os.Exit(1)
}

func loadSpecs(path string) ([]spec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f benchmarkFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return append(f.EndToEnd, f.PerLayer...), nil
}

func loadRuns(dir string) ([]run, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		return nil, err
	}
	var out []run
	for _, path := range files {
		r, err := parseRun(path)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no runs", dir)
	}
	return out, nil
}

func parseRun(path string) (run, error) {
	f, err := os.Open(path)
	if err != nil {
		return run{}, err
	}
	defer f.Close()
	var r run
	var last string
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if p, ok := strings.CutPrefix(line, "provenance: "); ok {
			var prov struct {
				Workload string `json:"workload"`
				Seed     uint64 `json:"seed"`
			}
			if err := json.Unmarshal([]byte(p), &prov); err != nil {
				return r, fmt.Errorf("provenance: %w", err)
			}
			r.workload, r.seed = prov.Workload, prov.Seed
		}
		if strings.TrimSpace(line) != "" {
			last = line
		}
	}
	if err := sc.Err(); err != nil {
		return r, err
	}
	if r.workload == "" {
		return r, fmt.Errorf("no provenance line")
	}
	var res struct {
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return r, fmt.Errorf("last line is not a result: %w", err)
	}
	r.metrics = map[string]float64{}
	for k, m := range res.Metrics {
		r.metrics[k] = m.Value
	}
	return r, nil
}

func workloads(a, b []run) []string {
	seen := map[string]bool{}
	var out []string
	for _, r := range append(append([]run(nil), a...), b...) {
		if !seen[r.workload] {
			seen[r.workload] = true
			out = append(out, r.workload)
		}
	}
	sort.Strings(out)
	return out
}

func values(rs []run, wl, metric string) []float64 {
	var out []float64
	for _, r := range rs {
		if v, ok := r.metrics[metric]; ok && r.workload == wl {
			out = append(out, v)
		}
	}
	return out
}

// pair matches parent and change runs of one workload with the same
// seed; each run is used once.
func pair(a, b []run, wl, metric string) [][2]float64 {
	used := map[int]bool{}
	var out [][2]float64
	for _, ra := range a {
		va, ok := ra.metrics[metric]
		if !ok || ra.workload != wl {
			continue
		}
		for j, rb := range b {
			vb, ok := rb.metrics[metric]
			if ok && !used[j] && rb.workload == wl && rb.seed == ra.seed {
				used[j] = true
				out = append(out, [2]float64{va, vb})
				break
			}
		}
	}
	return out
}

type comparison struct {
	wins    int
	verdict string
}

// compare applies the verdict rule to one metric of one workload.
func compare(s spec, a, b []float64, pairs [][2]float64) comparison {
	// gain > 0 means the change is better.
	gain := func(parent, change float64) float64 {
		if s.Better == "lower" {
			return parent - change
		}
		return change - parent
	}
	var c comparison
	for _, p := range pairs {
		if gain(p[0], p[1]) > 0 {
			c.wins++
		}
	}
	aq1, am, aq3 := benchstats.Quartiles(a)
	_, bm, _ := benchstats.Quartiles(b)
	allBetter := true
	for _, x := range a {
		for _, y := range b {
			if gain(x, y) <= 0 {
				allBetter = false
			}
		}
	}
	d := gain(am, bm)
	switch {
	case len(pairs) > 0 && float64(c.wins) >= 0.9*float64(len(pairs)) && d > aq3-aq1 || allBetter:
		c.verdict = "better"
	case s.Bound != nil && -d > *s.Bound*math.Abs(am):
		c.verdict = fmt.Sprintf("worse (by %.1f%%, bound %.0f%%)", 100*-d/math.Abs(am), 100**s.Bound)
	case s.Bound == nil:
		c.verdict = "unresolved (no bound)"
	case am != 0 && (aq3-aq1)/math.Abs(am) > *s.Bound:
		c.verdict = fmt.Sprintf("unresolved (parent spread %.1f%% > bound)", 100*(aq3-aq1)/math.Abs(am))
	default:
		c.verdict = "within bound"
	}
	return c
}

func summary(xs []float64) string {
	q1, m, q3 := benchstats.Quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g]", m, q1, q3)
}
