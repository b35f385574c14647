package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
)

// TempToleranceC is how far a pinned temperature may move: the
// pointwise line-SOR/multigrid disagreement TestMultigridAgreesWithLineSOR
// accepts. Every other pinned statistic must match exactly.
const TempToleranceC = 0.25

// Pin is the simulated outcome of one request of the default seed.
type Pin struct {
	RequestSHA256 string             `json:"request_sha256"`
	Stats         map[string]float64 `json:"stats,omitempty"`
	BodySHA256    string             `json:"body_sha256,omitempty"`
}

// PinTable maps a workload name to the pins of its first requests on
// DefaultSeed (for hit: of its warm set, in set order).
type PinTable map[string][]Pin

// pinCounts is how many leading requests of each cold workload are
// pinned: more than a run at the benchmark's run length completes.
var pinCounts = map[string]int{"replay": 96, "thermal": 24, "logic": 16}

func sha(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// simStats extracts the simulated statistics of a reply body. Keys
// ending in _c are temperatures (compared within TempToleranceC);
// experiments without simulated statistics are pinned by body hash.
func simStats(exp string, body []byte) (map[string]float64, string, error) {
	var env struct {
		Value json.RawMessage `json:"value"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		return nil, "", fmt.Errorf("decoding %s reply: %w", exp, err)
	}
	st := map[string]float64{}
	var err error
	switch exp {
	case "memory-perf":
		var v struct {
			CPMA        float64
			OffDieBytes uint64
			Refs        uint64
		}
		err = json.Unmarshal(env.Value, &v)
		st["refs"] = float64(v.Refs)
		st["cycles"] = math.Round(v.CPMA * float64(v.Refs))
		st["cpma"] = v.CPMA
		st["off_die_bytes"] = float64(v.OffDieBytes)
	case "fig3":
		var v []struct{ PeakC float64 }
		err = json.Unmarshal(env.Value, &v)
		for i, p := range v {
			st[fmt.Sprintf("peak%d_c", i)] = p.PeakC
		}
	case "table4":
		var v struct {
			Rows         []struct{ GainPct float64 }
			TotalGainPct float64
		}
		err = json.Unmarshal(env.Value, &v)
		st["total_gain_pct"] = v.TotalGainPct
		for i, r := range v.Rows {
			st[fmt.Sprintf("row%d_gain_pct", i)] = r.GainPct
		}
	case "managed-logic-thermal":
		var v struct {
			UnmanagedPeakC float64
			DTM            struct {
				ManagedPeakC float64
				Stats        struct{ Samples int }
			}
		}
		err = json.Unmarshal(env.Value, &v)
		st["unmanaged_peak_c"] = v.UnmanagedPeakC
		st["managed_peak_c"] = v.DTM.ManagedPeakC
		st["samples"] = float64(v.DTM.Stats.Samples)
	case "memory-thermal", "logic-thermal":
		var v struct{ PeakC float64 }
		err = json.Unmarshal(env.Value, &v)
		st["peak_c"] = v.PeakC
	case "memory-thermal-map":
		var v [][]float64
		err = json.Unmarshal(env.Value, &v)
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, row := range v {
			for _, t := range row {
				lo, hi = math.Min(lo, t), math.Max(hi, t)
			}
		}
		st["max_c"], st["min_c"] = hi, lo
	default:
		return nil, sha(body), nil
	}
	if err != nil {
		return nil, "", fmt.Errorf("decoding %s value: %w", exp, err)
	}
	return st, "", nil
}

// pinOf builds the pin for one request and its reply.
func pinOf(req Request, body []byte) (Pin, error) {
	st, bodySHA, err := simStats(req.Experiment, body)
	return Pin{RequestSHA256: sha(req.Body), Stats: st, BodySHA256: bodySHA}, err
}

// Match reports how got differs from the pinned p ("" when it agrees).
func (p Pin) Match(got Pin) string {
	if got.RequestSHA256 != p.RequestSHA256 {
		return "request differs from the pinned one (regenerate pinned.json with -pin)"
	}
	if got.BodySHA256 != p.BodySHA256 {
		return "body hash differs"
	}
	var diffs []string
	for k, want := range p.Stats {
		v, ok := got.Stats[k]
		tol := 0.0
		if strings.HasSuffix(k, "_c") {
			tol = TempToleranceC
		}
		if !ok || math.Abs(v-want) > tol {
			diffs = append(diffs, fmt.Sprintf("%s=%v, pinned %v", k, v, want))
		}
	}
	if len(got.Stats) != len(p.Stats) {
		diffs = append(diffs, "different statistics")
	}
	sort.Strings(diffs)
	return strings.Join(diffs, "; ")
}

func loadPins(path string) (PinTable, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var t PinTable
	if err := json.Unmarshal(b, &t); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return t, nil
}

// writePins runs the default seed's leading requests of every workload
// in process and writes their simulated statistics to path. DTM
// requests must also show the controller holding Tmax.
func writePins(ctx context.Context, path string) error {
	r := newRunner()
	defer r.close()
	t := PinTable{}
	for _, w := range Workloads() {
		var reqs []Request
		if w.Cold() {
			for i := 0; i < pinCounts[w.Name]; i++ {
				reqs = append(reqs, w.Request(DefaultSeed, i))
			}
		} else {
			reqs = w.Set(DefaultSeed)
		}
		for i, req := range reqs {
			u, err := r.untraced(ctx, req)
			if err != nil {
				return fmt.Errorf("%s request %d: %w", w.Name, i, err)
			}
			if err := checkHeld(req, u.Body); err != nil {
				return fmt.Errorf("%s request %d: %w", w.Name, i, err)
			}
			p, err := pinOf(req, u.Body)
			if err != nil {
				return err
			}
			t[w.Name] = append(t[w.Name], p)
		}
		fmt.Fprintf(os.Stderr, "pinned %d %s requests\n", len(reqs), w.Name)
	}
	b, err := json.MarshalIndent(t, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// checkHeld verifies a DTM reply stayed within HoldMarginC of its Tmax.
func checkHeld(req Request, body []byte) error {
	if req.Experiment != "managed-logic-thermal" {
		return nil
	}
	var in struct {
		Params struct {
			TmaxC float64 `json:"tmax_c"`
		} `json:"params"`
	}
	var out struct {
		Value struct {
			DTM struct{ ManagedPeakC float64 }
		} `json:"value"`
	}
	if err := json.Unmarshal(req.Body, &in); err != nil {
		return err
	}
	if err := json.Unmarshal(body, &out); err != nil {
		return err
	}
	if peak := out.Value.DTM.ManagedPeakC; peak > in.Params.TmaxC+HoldMarginC {
		return fmt.Errorf("controller did not hold Tmax %.2f °C: managed peak %.2f °C", in.Params.TmaxC, peak)
	}
	return nil
}
