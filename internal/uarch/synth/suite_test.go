package synth

import (
	"context"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"diestack/internal/uarch"
)

// refSuite is the per-configuration suite run Table4 replaced: it
// generates every profile's program afresh and runs it with uarch.Run.
func refSuite(ctx context.Context, cfg uarch.Config, seed uint64, n int) (SuiteResult, error) {
	profiles := Profiles()
	out := SuiteResult{PerProfile: make([]uarch.Result, len(profiles))}
	sumW := 0.0
	for i, p := range profiles {
		if err := p.Validate(); err != nil {
			return SuiteResult{}, err
		}
		res, err := uarch.Run(ctx, cfg, p.Generate(seed, n))
		if err != nil {
			return SuiteResult{}, err
		}
		out.PerProfile[i] = res
		out.IPC += p.Weight * res.IPC
		sumW += p.Weight
	}
	out.IPC /= sumW
	return out, nil
}

// refTable4 is Table 4 as twelve independent suite runs: the base, each
// group's fold, then the full fold.
func refTable4(ctx context.Context, cfg uarch.Config, seed uint64, n int) ([]Table4Row, float64, error) {
	base, err := refSuite(ctx, cfg, seed, n)
	if err != nil {
		return nil, 0, err
	}
	var rows []Table4Row
	for _, g := range Table4Groups() {
		folded, err := refSuite(ctx, cfg.Apply(g.Fold), seed, n)
		if err != nil {
			return nil, 0, err
		}
		removed, _ := cfg.StagesEliminated(g.Fold)
		groupTotal := groupStageCount(cfg, g.Fold)
		pct := 0.0
		if groupTotal > 0 {
			pct = float64(removed) / float64(groupTotal) * 100
		}
		rows = append(rows, Table4Row{
			Name:           g.Name,
			StagesPct:      pct,
			GainPct:        (folded.IPC/base.IPC - 1) * 100,
			PaperStagesPct: g.PaperStagesPct,
			PaperGainPct:   g.PaperGainPct,
		})
	}
	full, err := refSuite(ctx, cfg.Apply(uarch.FullFold()), seed, n)
	if err != nil {
		return nil, 0, err
	}
	return rows, (full.IPC/base.IPC - 1) * 100, nil
}

// TestTable4MatchesPerConfigSuites pins the profile-outer Table4 to the
// twelve-suite reference bit for bit, with annotated mispredictions
// and with the modeled predictor. n = 81 is one past the planar ROB.
func TestTable4MatchesPerConfigSuites(t *testing.T) {
	ctx := context.Background()
	modeled := uarch.PlanarConfig()
	modeled.Predictor = uarch.DefaultPredictor()
	for _, cfg := range []uarch.Config{uarch.PlanarConfig(), modeled} {
		for _, seed := range []uint64{1, 7, 12345} {
			for _, n := range []int{1, 81, 5000} {
				rows, total, err := Table4(ctx, cfg, seed, n)
				if err != nil {
					t.Fatal(err)
				}
				wantRows, wantTotal, err := refTable4(ctx, cfg, seed, n)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(rows, wantRows) || total != wantTotal {
					t.Errorf("predictor=%v seed=%d n=%d:\n got %v total %v\nwant %v total %v",
						cfg.Predictor != nil, seed, n, rows, total, wantRows, wantTotal)
				}
			}
		}
	}
}

// TestRunSuitesMatchesRunSuite: each RunSuites entry equals the suite
// run on its configuration alone, per-profile results included.
func TestRunSuitesMatchesRunSuite(t *testing.T) {
	ctx := context.Background()
	cfg := uarch.PlanarConfig()
	modeled := cfg
	modeled.Predictor = uarch.DefaultPredictor()
	cfgs := []uarch.Config{cfg, modeled.Apply(uarch.FullFold()), cfg.Apply(uarch.FullFold()), modeled}
	got, err := RunSuites(ctx, cfgs, 3, 2000)
	if err != nil {
		t.Fatal(err)
	}
	for k, c := range cfgs {
		want, err := refSuite(ctx, c, 3, 2000)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[k], want) {
			t.Errorf("config %d: RunSuites %+v, reference %+v", k, got[k], want)
		}
	}
}

// TestSuiteRejectsEmptyPrograms: a non-positive instruction count is
// an error rather than a make panic (n < 0) or NaN gains (n = 0).
func TestSuiteRejectsEmptyPrograms(t *testing.T) {
	ctx := context.Background()
	for _, n := range []int{0, -1} {
		if _, err := RunSuites(ctx, []uarch.Config{uarch.PlanarConfig()}, 1, n); err == nil {
			t.Errorf("RunSuites n=%d accepted", n)
		}
		if _, err := RunSuite(ctx, uarch.PlanarConfig(), 1, n); err == nil {
			t.Errorf("RunSuite n=%d accepted", n)
		}
		if _, _, err := Table4(ctx, uarch.PlanarConfig(), 1, n); err == nil {
			t.Errorf("Table4 n=%d accepted", n)
		}
	}
}

// TestTable4AllocationBound: one Table4 allocates less than three
// suites' worth of programs (8 profiles x n instructions, three
// times). Regenerating the programs for each of the twelve
// configurations allocates several times that.
func TestTable4AllocationBound(t *testing.T) {
	const n = 20_000
	bound := uint64(3 * 8 * n * unsafe.Sizeof(uarch.Inst{}))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, _, err := Table4(context.Background(), uarch.PlanarConfig(), 1, n); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= bound {
		t.Errorf("Table4 at n=%d allocated %d bytes, bound %d", n, got, bound)
	}
}
