package synth

import (
	"context"
	"fmt"

	"diestack/internal/uarch"
)

// SuiteResult is the weighted aggregate over all application classes.
type SuiteResult struct {
	// IPC is the weight-averaged instructions per cycle.
	IPC float64
	// PerProfile holds each class's result in Profiles() order.
	PerProfile []uarch.Result
}

// RunSuite executes every profile on the pipeline configuration and
// returns the weighted aggregate (the stand-in for the paper's 650+
// trace average). n is the per-profile instruction count.
func RunSuite(ctx context.Context, cfg uarch.Config, seed uint64, n int) (SuiteResult, error) {
	out, err := RunSuites(ctx, []uarch.Config{cfg}, seed, n)
	if err != nil {
		return SuiteResult{}, err
	}
	return out[0], nil
}

// RunSuites runs the suite on every configuration and returns one
// SuiteResult per configuration, in order; each equals RunSuite's
// result for that configuration. The loop is profile-outer: each
// profile's program is generated once and replayed on every
// configuration before the next profile's program overwrites it. The
// program and the simulator's timing buffers are allocated once per
// call, so one program is live at a time however many configurations
// are swept, and the call's allocation does not grow with the number
// of profiles.
func RunSuites(ctx context.Context, cfgs []uarch.Config, seed uint64, n int) ([]SuiteResult, error) {
	if n < 1 {
		return nil, fmt.Errorf("synth: instruction count %d < 1", n)
	}
	profiles := Profiles()
	out := make([]SuiteResult, len(cfgs))
	for k := range out {
		out[k].PerProfile = make([]uarch.Result, len(profiles))
	}
	prog := make([]uarch.Inst, n)
	var scratch uarch.Scratch
	for i, p := range profiles {
		if err := p.Validate(); err != nil {
			return nil, err
		}
		p.fill(seed, prog)
		res, err := scratch.RunConfigs(ctx, cfgs, prog)
		if err != nil {
			return nil, fmt.Errorf("synth: %s: %w", p.Name, err)
		}
		for k, r := range res {
			out[k].PerProfile[i] = r
		}
	}
	// Reduce in profile order, summing then dividing, so every
	// configuration's IPC takes the same float operations as a suite
	// run on that configuration alone.
	sumW := 0.0
	for _, p := range profiles {
		sumW += p.Weight
	}
	for k := range out {
		for i, p := range profiles {
			out[k].IPC += p.Weight * out[k].PerProfile[i].IPC
		}
		out[k].IPC /= sumW
	}
	return out, nil
}

// Table4Group is one functionality row of the paper's Table 4.
type Table4Group struct {
	Name string
	// Fold enables just this group's stage elimination.
	Fold uarch.Fold
	// PaperStagesPct and PaperGainPct are the paper's reported values,
	// for side-by-side reporting ("Variable" is recorded as 0).
	PaperStagesPct, PaperGainPct float64
}

// Table4Groups returns the paper's ten functionality groups in table
// order.
func Table4Groups() []Table4Group {
	return []Table4Group{
		{"Front-end pipeline", uarch.Fold{FrontEnd: true}, 12.5, 0.2},
		{"Trace cache read", uarch.Fold{TraceCache: true}, 20, 0.33},
		{"Rename allocation", uarch.Fold{Rename: true}, 25, 0.66},
		{"FP inst. latency", uarch.Fold{FPLatency: true}, 0, 4.0},
		{"Int register file read", uarch.Fold{IntRF: true}, 25, 0.5},
		{"Data cache read", uarch.Fold{DCache: true}, 25, 1.5},
		{"Instruction loop", uarch.Fold{Loop: true}, 17, 1.0},
		{"Retire to de-allocation", uarch.Fold{RetireDealc: true}, 20, 1.0},
		{"FP load latency", uarch.Fold{FPLoad: true}, 35, 2.0},
		{"Store lifetime", uarch.Fold{StoreLife: true}, 30, 3.0},
	}
}

// Table4Row is one measured row.
type Table4Row struct {
	Name           string
	StagesPct      float64 // % of the group's planar stages removed
	GainPct        float64 // measured performance gain
	PaperStagesPct float64
	PaperGainPct   float64
}

// Table4 measures the per-group and total performance gains of the 3D
// fold, reproducing the paper's Table 4. n is the per-profile
// instruction count (100k is enough for stable percentages).
func Table4(ctx context.Context, cfg uarch.Config, seed uint64, n int) (rows []Table4Row, totalGainPct float64, err error) {
	// One suite sweep over [base, each group's fold, the full fold].
	groups := Table4Groups()
	cfgs := make([]uarch.Config, 0, len(groups)+2)
	cfgs = append(cfgs, cfg)
	for _, g := range groups {
		cfgs = append(cfgs, cfg.Apply(g.Fold))
	}
	cfgs = append(cfgs, cfg.Apply(uarch.FullFold()))
	suites, err := RunSuites(ctx, cfgs, seed, n)
	if err != nil {
		return nil, 0, err
	}
	base, full := suites[0], suites[len(suites)-1]
	for i, g := range groups {
		folded := suites[1+i]
		removed, _ := cfg.StagesEliminated(g.Fold)
		// The group's own planar stage count for the percent column.
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
	return rows, (full.IPC/base.IPC - 1) * 100, nil
}

// groupStageCount returns the planar stage count of the group a fold
// touches (the denominator of the "% of stages eliminated" column).
func groupStageCount(c uarch.Config, f uarch.Fold) int {
	switch {
	case f.FrontEnd:
		return c.FrontEndStages
	case f.TraceCache:
		return c.TraceCacheStages
	case f.Rename:
		return c.RenameStages
	case f.FPLatency:
		return c.FPLatency
	case f.IntRF:
		return c.IntRFStages
	case f.DCache:
		return c.DCacheStages
	case f.Loop:
		return c.LoopStages
	case f.RetireDealc:
		return c.RetireDeallocStages
	case f.FPLoad:
		return c.FPLoadExtra
	case f.StoreLife:
		return c.StoreLifetime
	default:
		return 0
	}
}
