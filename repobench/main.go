// Command repobench is the repository benchmark: it starts the real
// stackd binary on loopback, drives one seeded closed-loop workload
// against it, checks every reply, and prints the end-to-end metrics
// (or, with -trace 1, the per-layer split) as one JSON line.
//
//	bash repobench/run.sh --workload replay --seed 1 --seconds 24 --trace 0
//
// See README.md in this directory for the workloads and metrics.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"syscall"
	"time"

	"diestack/repobench/benchstats"
)

// setupRepeats is how many fresh servers each run launches to time
// set-up; the last one serves the measured load. A launch takes a few
// milliseconds and varies by ±20 % on a loaded host; the median of 11
// halves the run-to-run spread of the median of 5.
const setupRepeats = 11

// coldSample is how many cold replies an untraced run re-computes in
// process for the byte-equality check.
const coldSample = 1

type options struct {
	workload Workload
	seed     uint64
	seconds  int
	traced   bool
	stackd   string
	pins     string
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: replay, thermal, logic or hit")
		seed    = flag.Uint64("seed", DefaultSeed, "workload seed")
		seconds = flag.Int("seconds", 24, "measured seconds")
		traced  = flag.Int("trace", 0, "1 reports the per-layer split instead of the end-to-end metrics")
		bin     = flag.String("stackd", "", "stackd binary to benchmark")
		pins    = flag.String("pins", "repobench/pinned.json", "pinned simulated statistics of the default seed")
		pinOut  = flag.String("pin", "", "recompute the pinned statistics into this file and exit")
	)
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *pinOut != "" {
		if err := writePins(ctx, *pinOut); err != nil {
			fail(err)
		}
		return
	}
	w, err := WorkloadByName(*name)
	if err != nil {
		fail(err)
	}
	if *bin == "" || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fail(errors.New("need -stackd, -seconds >= 1 and -trace 0|1"))
	}
	opt := options{workload: w, seed: *seed, seconds: *seconds, traced: *traced == 1, stackd: *bin, pins: *pins}
	if err := bench(ctx, opt); err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "repobench:", err)
	os.Exit(1)
}

// Metric is one reported number.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the last line of output.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// failures tracks failed requests by index with their first reason.
type failures map[int]string

func (f failures) add(i int, format string, args ...any) {
	if _, ok := f[i]; !ok {
		f[i] = fmt.Sprintf(format, args...)
	}
}

func bench(ctx context.Context, opt options) error {
	w := opt.workload
	prov, err := json.Marshal(provenance(w, opt.seed, opt.seconds, opt.traced))
	if err != nil {
		return err
	}
	fmt.Printf("provenance: %s\n", prov)
	var pins []Pin
	if opt.seed == DefaultSeed {
		t, err := loadPins(opt.pins)
		if err != nil {
			return fmt.Errorf("loading pinned statistics: %w", err)
		}
		pins = t[w.Name]
	}

	var set []Request
	if !w.Cold() {
		set = w.Set(opt.seed)
	}
	// The load generator needs one P for one closed-loop client; more
	// only add thread hand-offs to every launch and round trip it times.
	// stackd keeps its own default.
	procs := runtime.GOMAXPROCS(1)
	srv, setups, warm, err := setUp(ctx, opt.stackd, set)
	if err != nil {
		return err
	}
	problems := warmProblems(warm, pins)

	keep := func(int) bool { return true }
	if !w.Cold() {
		keep = func(i int) bool { return mix(opt.seed, streamSample, i)%256 == 0 }
	}
	var rss float64
	var rssErr error
	readRSS := func() { rss, rssErr = srv.peakRSSMB() }
	steal0 := readSteal()
	lr := runLoad(ctx, srv.URL, time.Duration(opt.seconds)*time.Second, w.Source(opt.seed), keep, func(n int) {
		if n == w.RSSAfter {
			readRSS()
		}
	})
	steal := readSteal().since(steal0)
	runtime.GOMAXPROCS(procs)
	if len(lr.Sent) < w.RSSAfter {
		readRSS()
	}
	if err := srv.stop(); err != nil {
		problems = append(problems, fmt.Sprintf("stackd exit: %v", err))
	}
	if rssErr != nil {
		return rssErr
	}
	if ctx.Err() != nil {
		return ctx.Err()
	}
	if len(lr.Sent) == 0 {
		return errors.New("no request completed")
	}

	// Everything below is off the clock.
	fails := checkReplies(w, lr.Sent, pins)
	r := newRunner()
	defer r.close()
	var layers *layerReport
	if w.Cold() {
		sample := coldSampleOf(lr.Sent, opt.seed)
		if opt.traced {
			sample = okSent(lr.Sent)
		}
		layers, err = checkCold(ctx, r, sample, fails, opt.traced, time.Duration(opt.seconds)*time.Second/2)
	} else {
		layers, err = checkHit(ctx, r, set, lr.Sent, fails, opt.traced)
	}
	if err != nil {
		return err
	}
	problems = append(problems, layers.problems...)

	// End-to-end metrics.
	var lat []float64
	for _, s := range lr.Sent {
		if s.Err == nil {
			lat = append(lat, float64(s.Latency.Nanoseconds())/1e6)
		}
	}
	p50 := benchstats.Median(lat)
	_, tailPct, tailOK := benchstats.Tail(lat)
	refs := 0.0
	if w.Cold() {
		refs = lr.Rate(refsOf)
	}
	e2e := endToEnd(lr, lat, setups, rss)
	attempted, failed := len(lr.Sent), len(fails)
	errRate := float64(failed) / float64(attempted)

	fmt.Printf("workload %s: one closed-loop client, %d s, seed %d, %d requests\n",
		w.Name, opt.seconds, opt.seed, attempted)
	for _, k := range sortedKeys(e2e) {
		fmt.Printf("  %-16s %14.6g %s\n", k, e2e[k].Value, e2e[k].Unit)
	}
	tailNote := fmt.Sprintf("p%.4g, %d samples", tailPct, len(lat))
	if !tailOK {
		tailNote = fmt.Sprintf("the minimum: only %d samples, none has %d beyond it", len(lat), benchstats.TailBeyond)
	}
	fmt.Printf("  latency_tail_ms is %s\n", tailNote)
	fmt.Printf("  %-16s %14.6g ratio (%d of %d failed)\n", "error_rate", errRate, failed, attempted)
	fmt.Printf("  %-16s %14.6g 1/s\n", "sim_refs_per_s", refs)
	fmt.Printf("  setup runs (s): %v\n", setups)
	fmt.Printf("  peak_rss_mb read after %d replies; host steal during the load: %.1f%% of CPU time\n",
		min(w.RSSAfter, len(lr.Sent)), steal)
	for _, i := range sortedKeys(fails) {
		fmt.Printf("  FAILED request %d (%s): %s\n", i, lr.Sent[i].Req.Experiment, fails[i])
	}
	for _, p := range problems {
		fmt.Printf("  PROBLEM: %s\n", p)
	}

	metrics := e2e
	if opt.traced {
		metrics = layers.metrics(p50, lr.Sent, refs)
		layers.print(p50)
	}
	out, err := json.Marshal(Result{
		Correct:   failed == 0 && len(problems) == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// endToEnd computes the end-to-end metrics of one run from its
// successful latencies (ms), set-up times (s) and server peak RSS (MB).
func endToEnd(lr LoadResult, lat, setups []float64, rssMB float64) map[string]Metric {
	tail, _, _ := benchstats.Tail(lat)
	return map[string]Metric{
		"throughput_rps":  {lr.Rate(func(Sent) float64 { return 1 }), "1/s"},
		"latency_p50_ms":  {benchstats.Median(lat), "ms"},
		"latency_tail_ms": {tail, "ms"},
		"setup_s":         {benchstats.Median(setups), "s"},
		"peak_rss_mb":     {rssMB, "MB"},
	}
}

// setUp times setupRepeats launches of a fresh stackd, each from
// launch to /healthz OK and, when set is given, through sending the
// warm set once. The last server is returned running, with its warm-up
// replies.
func setUp(ctx context.Context, bin string, set []Request) (*stackd, []float64, []Sent, error) {
	var setups []float64
	for k := 0; ; k++ {
		t0 := time.Now()
		s, err := startStackd(ctx, bin)
		if err != nil {
			return nil, nil, nil, err
		}
		var warm []Sent
		if set != nil {
			warm = sendAll(ctx, s.URL, set)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if k == setupRepeats-1 {
			return s, setups, warm, nil
		}
		s.stop()
	}
}

// checkReplies applies the per-reply checks: status, cache state,
// Tmax held, and on the default seed the pinned statistics.
func checkReplies(w Workload, sent []Sent, pins []Pin) failures {
	fails := failures{}
	for _, s := range sent {
		switch {
		case s.Err != nil:
			fails.add(s.Index, "transport: %v", s.Err)
		case s.Status != 200:
			fails.add(s.Index, "status %d: %s", s.Status, bytes.TrimSpace(s.Body))
		case w.Cold() && s.Cache != "miss":
			fails.add(s.Index, "cache %q on a cold workload", s.Cache)
		case !w.Cold() && s.Cache != "hit":
			fails.add(s.Index, "cache %q on the hit workload", s.Cache)
		}
		if s.Body == nil || s.Status != 200 {
			continue
		}
		if err := checkHeld(s.Req, s.Body); err != nil {
			fails.add(s.Index, "%v", err)
		}
		if w.Cold() && s.Index < len(pins) {
			got, err := pinOf(s.Req, s.Body)
			if err != nil {
				fails.add(s.Index, "%v", err)
			} else if msg := pins[s.Index].Match(got); msg != "" {
				fails.add(s.Index, "pinned statistics: %s", msg)
			}
		}
	}
	return fails
}

// streamSample draws which replies are byte-checked.
const streamSample = 99

// warmProblems checks the warm-up replies and pins them on the default
// seed.
func warmProblems(warm []Sent, pins []Pin) []string {
	var out []string
	for _, s := range warm {
		if s.Err != nil || s.Status != 200 {
			out = append(out, fmt.Sprintf("warm-up %s: status %d, %v", s.Req.Experiment, s.Status, s.Err))
			continue
		}
		if pins == nil {
			continue
		}
		got, err := pinOf(s.Req, s.Body)
		if err != nil {
			out = append(out, err.Error())
		} else if s.Index >= len(pins) {
			out = append(out, fmt.Sprintf("warm-up %d: no pin", s.Index))
		} else if msg := pins[s.Index].Match(got); msg != "" {
			out = append(out, fmt.Sprintf("warm-up %d (%s) pinned statistics: %s", s.Index, s.Req.Experiment, msg))
		}
	}
	return out
}

// refsOf is the simulated reference count of a memory-perf reply.
func refsOf(s Sent) float64 {
	if s.Req.Experiment != "memory-perf" || s.Body == nil || s.Status != 200 {
		return 0
	}
	var v struct{ Value struct{ Refs uint64 } }
	if json.Unmarshal(s.Body, &v) != nil {
		return 0
	}
	return float64(v.Value.Refs)
}

// coldSampleOf picks the seeded coldSample successful replies to
// re-compute in process.
func coldSampleOf(sent []Sent, seed uint64) []Sent {
	ok := okSent(sent)
	sort.SliceStable(ok, func(a, b int) bool {
		return mix(seed, streamSample, ok[a].Index) < mix(seed, streamSample, ok[b].Index)
	})
	if len(ok) > coldSample {
		ok = ok[:coldSample]
	}
	return ok
}

func okSent(sent []Sent) []Sent {
	var out []Sent
	for _, s := range sent {
		if s.Err == nil && s.Status == 200 && s.Body != nil {
			out = append(out, s)
		}
	}
	return out
}

func sortedKeys[K int | string, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
	return keys
}
