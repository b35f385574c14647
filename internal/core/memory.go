// Package core ties the substrates together into the paper's two
// studies: Memory+Logic stacking (Section 3 — a large SRAM or DRAM
// cache stacked on a dual-core die) and Logic+Logic stacking
// (Section 4 — a deeply pipelined microprocessor folded onto two
// dies), each evaluated for performance, power, and temperature.
//
// Every table and figure of the paper's evaluation is regenerated
// through this package; see DESIGN.md for the experiment index.
package core

import (
	"context"
	"fmt"

	"diestack/internal/fault"
	"diestack/internal/floorplan"
	"diestack/internal/memhier"
	"diestack/internal/thermal"
	"diestack/internal/trace"
	"diestack/internal/workload"
)

// MemoryOption is one of the four Memory+Logic configurations of
// Figure 5 / Figure 7.
type MemoryOption int

const (
	// Planar4MB is the unmodified baseline die (Figure 7a).
	Planar4MB MemoryOption = iota
	// Stacked12MB adds an 8 MB SRAM die (Figure 7b).
	Stacked12MB
	// Stacked32MB replaces the L2 with a stacked 32 MB DRAM (Figure 7c).
	Stacked32MB
	// Stacked64MB stacks a 64 MB DRAM on the unchanged die (Figure 7d).
	Stacked64MB
)

// MemoryOptions returns all four options in paper order.
func MemoryOptions() []MemoryOption {
	return []MemoryOption{Planar4MB, Stacked12MB, Stacked32MB, Stacked64MB}
}

// String names the option as in the paper's figures.
func (o MemoryOption) String() string {
	switch o {
	case Planar4MB:
		return "2D 4MB"
	case Stacked12MB:
		return "3D 12MB"
	case Stacked32MB:
		return "3D 32MB"
	case Stacked64MB:
		return "3D 64MB"
	default:
		return fmt.Sprintf("MemoryOption(%d)", int(o))
	}
}

// CapacityMB returns the option's last-level capacity.
func (o MemoryOption) CapacityMB() int {
	switch o {
	case Planar4MB:
		return 4
	case Stacked12MB:
		return 12
	case Stacked32MB:
		return 32
	case Stacked64MB:
		return 64
	default:
		return 0
	}
}

// HierarchyConfig returns the option's memory hierarchy (Table 3).
func (o MemoryOption) HierarchyConfig() (memhier.Config, error) {
	cfg, ok := memhier.ConfigByCapacity(o.CapacityMB())
	if !ok {
		return memhier.Config{}, fmt.Errorf("core: unknown memory option %d", int(o))
	}
	return cfg, nil
}

// Floorplan returns the option's physical design (Figure 7).
func (o MemoryOption) Floorplan() (*floorplan.Floorplan, error) {
	switch o {
	case Planar4MB:
		return floorplan.Core2DuoPlanar(), nil
	case Stacked12MB:
		return floorplan.Core2DuoStacked12MB(), nil
	case Stacked32MB:
		return floorplan.Core2DuoStacked32MB(), nil
	case Stacked64MB:
		return floorplan.Core2DuoStacked64MB(), nil
	default:
		return nil, fmt.Errorf("core: unknown memory option %d", int(o))
	}
}

// stackedDie returns the second die's thermal spec builder.
func (o MemoryOption) stackedDie() func(*thermal.PowerMap) thermal.DieSpec {
	if o == Stacked12MB {
		return thermal.SRAMDie
	}
	return thermal.DRAMDie
}

// buildStack assembles (without solving) the option's thermal stack at
// the given lateral resolution (<= 0 selects the default), returning
// the floorplan alongside.
func (o MemoryOption) buildStack(grid int) (*thermal.Stack, *floorplan.Floorplan, error) {
	fp, err := o.Floorplan()
	if err != nil {
		return nil, nil, err
	}
	nx, ny := gridOrDefault(grid)
	opt := thermal.StackOptions{Nx: nx, Ny: ny}
	pkgW, pkgH := thermal.DefaultPackageW, thermal.DefaultPackageH
	cpuMap := fp.PowerMapCentered(0, nx, ny, pkgW, pkgH)

	if fp.Dies == 1 {
		return thermal.PlanarStack(fp.DieW, fp.DieH, cpuMap, opt), fp, nil
	}
	memMap := fp.PowerMapCentered(1, nx, ny, pkgW, pkgH)
	return thermal.ThreeDStack(fp.DieW, fp.DieH,
		thermal.LogicDie(cpuMap), o.stackedDie()(memMap), opt), fp, nil
}

// stackKey names the option's stack shape for workspace pooling.
func (o MemoryOption) stackKey(grid int) string {
	nx, _ := gridOrDefault(grid)
	return fmt.Sprintf("mem/%dMB/g%d", o.CapacityMB(), nx)
}

// MemoryPerf is one bar (and bandwidth point) of Figure 5.
type MemoryPerf struct {
	Benchmark string
	Option    MemoryOption
	// CPMA is cycles per memory access.
	CPMA float64
	// BandwidthGBs is the off-die bus bandwidth.
	BandwidthGBs float64
	// BusPowerW prices that bandwidth at 20 mW/Gb/s.
	BusPowerW float64
	// OffDieBytes is the total bus traffic.
	OffDieBytes uint64
	// Refs is the number of memory references replayed.
	Refs uint64
	// Faults holds the injected-fault and recovery counters (all-zero
	// when injection is disabled).
	Faults fault.Stats
	// DRAMRemapped counts stacked-DRAM accesses redirected off dead
	// banks; DRAMFaultCycles is latency added by degraded via lanes.
	DRAMRemapped    uint64
	DRAMFaultCycles int64
}

// RunMemoryPerf replays one benchmark's trace against one
// configuration, with fc injected on the stacked DRAM cache (a zero fc
// injects nothing). spec.Seed and spec.Scale size the workload;
// spec.Obs instruments the replay. The replay checks ctx periodically
// and aborts with its error on cancellation.
func RunMemoryPerf(ctx context.Context, spec RunSpec, o MemoryOption, bench workload.Benchmark, fc fault.Config) (MemoryPerf, error) {
	return memoryPerf(ctx, spec, o, bench.Name, bench.Generate(spec.Seed, spec.Scale), fc)
}

// memoryPerf replays recs, the named benchmark's trace, against option
// o and reports the Figure 5 cell.
func memoryPerf(ctx context.Context, spec RunSpec, o MemoryOption, bench string, recs []trace.Record, fc fault.Config) (MemoryPerf, error) {
	res, err := ReplayMemory(ctx, o, bench, trace.NewSliceStream(recs), fc, memhier.RunOptions{Obs: spec.Obs})
	if err != nil {
		return MemoryPerf{}, err
	}
	return MemoryPerf{
		Benchmark:       bench,
		Option:          o,
		CPMA:            res.CPMA,
		BandwidthGBs:    res.BandwidthGBs,
		BusPowerW:       res.BusPowerW,
		OffDieBytes:     res.OffDieBytes,
		Refs:            res.Refs,
		Faults:          res.Faults,
		DRAMRemapped:    res.DRAMCache.Remapped,
		DRAMFaultCycles: res.DRAMCache.FaultCycles,
	}, nil
}

// ReplayMemory replays stream against option o's hierarchy with fc
// injected on the stacked DRAM cache, supervised by opt (checkpoints,
// resume, metrics). name labels the stream in errors. It is the one
// replay path: RunMemoryPerf and RunFigure5 feed it generated traces,
// the CLIs feed it trace files and checkpointed runs.
func ReplayMemory(ctx context.Context, o MemoryOption, name string, stream trace.Stream, fc fault.Config, opt memhier.RunOptions) (memhier.Result, error) {
	cfg, err := o.HierarchyConfig()
	if err != nil {
		return memhier.Result{}, err
	}
	cfg.Faults = fc
	if cfg.L2Type == memhier.L2DRAM && len(fc.DeadBanks) > 0 {
		// Surface an impossible bank-kill before building the machine.
		if err := fc.ValidateBanks(cfg.DRAMArray.Banks); err != nil {
			return memhier.Result{}, fmt.Errorf("core: faults: %w", err)
		}
	}
	sim, err := memhier.New(cfg)
	if err != nil {
		return memhier.Result{}, err
	}
	res, err := sim.Run(ctx, stream, opt)
	if err != nil {
		return memhier.Result{}, fmt.Errorf("core: %s on %s: %w", name, o, err)
	}
	return res, nil
}

// Figure5Result holds the full sweep: rows[benchmark][option].
type Figure5Result struct {
	Benchmarks []string
	Options    []MemoryOption
	Rows       [][]MemoryPerf
}

// RunFigure5 sweeps benches over every configuration with fc injected
// on the stacked DRAM cache — the paper's Figure 5 is all RMS
// benchmarks (workload.All) and a zero fc. Each benchmark's trace is
// generated once and shared across the four options; cancellation
// aborts mid-sweep with the context's error.
func RunFigure5(ctx context.Context, spec RunSpec, benches []workload.Benchmark, fc fault.Config) (*Figure5Result, error) {
	opts := MemoryOptions()
	out := &Figure5Result{Options: opts}
	for _, b := range benches {
		out.Benchmarks = append(out.Benchmarks, b.Name)
		recs := b.Generate(spec.Seed, spec.Scale)
		row := make([]MemoryPerf, 0, len(opts))
		for _, o := range opts {
			p, err := memoryPerf(ctx, spec, o, b.Name, recs, fc)
			if err != nil {
				return nil, err
			}
			row = append(row, p)
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// Headline summarizes Figure 5 the way the paper's abstract does.
type Headline struct {
	// AvgCPMAReductionPct is the mean CPMA reduction of the 32 MB
	// stack vs the baseline (paper: 13%).
	AvgCPMAReductionPct float64
	// MaxCPMAReductionPct is the best single benchmark (paper: ~55%).
	MaxCPMAReductionPct float64
	// MaxReductionBenchmark names it.
	MaxReductionBenchmark string
	// TrafficReductionFactor is baseline bus bytes over 32 MB bus
	// bytes, averaged (paper: ~3x).
	TrafficReductionFactor float64
	// BusPowerSavingW is the average bus power saved (paper: ~0.5 W).
	BusPowerSavingW float64
}

// Headline computes the abstract's aggregate claims from a Figure 5
// sweep.
func (f *Figure5Result) Headline() Headline {
	baseIdx, bigIdx := -1, -1
	for i, o := range f.Options {
		switch o {
		case Planar4MB:
			baseIdx = i
		case Stacked32MB:
			bigIdx = i
		}
	}
	var h Headline
	if baseIdx < 0 || bigIdx < 0 || len(f.Rows) == 0 {
		return h
	}
	var sumRed, sumFactor, sumSaving float64
	for i, row := range f.Rows {
		base, big := row[baseIdx], row[bigIdx]
		red := (1 - big.CPMA/base.CPMA) * 100
		sumRed += red
		// Seed the maximum from the first row: when no kernel improves,
		// the best one is still named.
		if i == 0 || red > h.MaxCPMAReductionPct {
			h.MaxCPMAReductionPct = red
			h.MaxReductionBenchmark = f.Benchmarks[i]
		}
		if big.OffDieBytes > 0 {
			sumFactor += float64(base.OffDieBytes) / float64(big.OffDieBytes)
		}
		sumSaving += base.BusPowerW - big.BusPowerW
	}
	n := float64(len(f.Rows))
	h.AvgCPMAReductionPct = sumRed / n
	h.TrafficReductionFactor = sumFactor / n
	h.BusPowerSavingW = sumSaving / n
	return h
}

// MemoryThermal is one bar of Figure 8(a).
type MemoryThermal struct {
	Option MemoryOption
	// PeakC is the stack's hottest temperature.
	PeakC float64
	// MinC is the coolest spot on the CPU die.
	MinC float64
	// TotalPowerW is the configuration's power (Figure 7).
	TotalPowerW float64
}

// RunMemoryThermal solves the option's thermal stack (Figure 8).
// spec.Grid <= 0 selects the default resolution. A solver that fails
// to converge surfaces thermal.ErrNotConverged (or thermal.ErrDiverged)
// wrapped with the option it was solving.
func RunMemoryThermal(ctx context.Context, spec RunSpec, o MemoryOption) (MemoryThermal, error) {
	field, cpu, fp, err := o.solve(ctx, spec)
	if err != nil {
		return MemoryThermal{}, err
	}
	stack := field.Stack()
	die := thermal.CenteredDie(stack.Width, stack.Height, fp.DieW, fp.DieH)
	return MemoryThermal{
		Option:      o,
		PeakC:       field.Peak(),
		MinC:        field.LayerPeakMinIn(cpu, die),
		TotalPowerW: fp.TotalPower(),
	}, nil
}

// RunMemoryThermalMap solves one option's stack and returns the CPU
// active layer's lateral temperature map — Figure 8(b) is this map for
// the 32 MB configuration. spec.Grid <= 0 selects the default
// resolution.
func RunMemoryThermalMap(ctx context.Context, spec RunSpec, o MemoryOption) ([][]float64, error) {
	field, cpu, _, err := o.solve(ctx, spec)
	if err != nil {
		return nil, err
	}
	return field.LayerMap(cpu), nil
}

// solve builds and solves the option's stack under its stackKey. It
// returns the field, the index of the CPU die's active layer ("active"
// on the planar stack, "active #1" on a stacked one) and the
// floorplan.
func (o MemoryOption) solve(ctx context.Context, spec RunSpec) (*thermal.Field, int, *floorplan.Floorplan, error) {
	stack, fp, err := o.buildStack(spec.Grid)
	if err != nil {
		return nil, 0, nil, err
	}
	field, err := solveStack(ctx, spec, o.stackKey(spec.Grid), stack)
	if err != nil {
		return nil, 0, nil, fmt.Errorf("core: thermal solve for %s: %w", o, err)
	}
	cpu := stack.LayerIndex("active")
	if cpu < 0 {
		cpu = stack.LayerIndex("active #1")
	}
	return field, cpu, fp, nil
}

// RunFigure8 solves all four options (Figure 8a).
func RunFigure8(ctx context.Context, spec RunSpec) ([]MemoryThermal, error) {
	out := make([]MemoryThermal, 0, 4)
	for _, o := range MemoryOptions() {
		r, err := RunMemoryThermal(ctx, spec, o)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

func gridOrDefault(grid int) (int, int) {
	if grid <= 0 {
		return 64, 64
	}
	return grid, grid
}
