package core

import (
	"context"
	"fmt"

	"diestack/internal/floorplan"
	"diestack/internal/power"
	"diestack/internal/thermal"
	"diestack/internal/uarch"
	"diestack/internal/uarch/synth"
	"diestack/internal/wire"
)

// LogicOption is one bar of Figure 11.
type LogicOption int

const (
	// LogicPlanar is the planar Pentium 4-class baseline.
	LogicPlanar LogicOption = iota
	// Logic3D is the Figure 10 fold: -15% power, ~1.3x peak density.
	Logic3D
	// Logic3DWorst is the pathological fold: no power saving, 2x
	// aligned power density.
	Logic3DWorst
)

// LogicOptions returns the three Figure 11 configurations in order.
func LogicOptions() []LogicOption {
	return []LogicOption{LogicPlanar, Logic3D, Logic3DWorst}
}

// String names the option as in Figure 11.
func (o LogicOption) String() string {
	switch o {
	case LogicPlanar:
		return "2D Baseline"
	case Logic3D:
		return "3D"
	case Logic3DWorst:
		return "3D Worstcase"
	default:
		return fmt.Sprintf("LogicOption(%d)", int(o))
	}
}

// Floorplan returns the option's physical design.
func (o LogicOption) Floorplan() (*floorplan.Floorplan, error) {
	switch o {
	case LogicPlanar:
		return floorplan.Pentium4Planar(), nil
	case Logic3D:
		return floorplan.Pentium4ThreeD(), nil
	case Logic3DWorst:
		return floorplan.Pentium4WorstCase(), nil
	default:
		return nil, fmt.Errorf("core: unknown logic option %d", int(o))
	}
}

// LogicThermal is one bar of Figure 11.
type LogicThermal struct {
	Option LogicOption
	PeakC  float64
	// TotalPowerW is the floorplan's power.
	TotalPowerW float64
	// DensityRatio is the through-stack peak power density relative to
	// the planar floorplan (paper: 1.3x for 3D, 2x worst case).
	DensityRatio float64
}

// buildLogicStack assembles (without solving) the thermal stack for a
// logic floorplan whose block powers have been scaled by powerScale.
// Steady runs solve it once; DTM runs integrate it transiently with a
// controller in the loop (see resilience.go).
func buildLogicStack(fp *floorplan.Floorplan, grid int, powerScale float64) *thermal.Stack {
	nx, ny := gridOrDefault(grid)
	opt := thermal.StackOptions{Nx: nx, Ny: ny, TopH: thermal.PerformanceTopH}
	pkgW, pkgH := thermal.DefaultPackageW, thermal.DefaultPackageH

	scaled := fp.Clone().ScalePower(powerScale)
	top := scaled.PowerMapCentered(0, nx, ny, pkgW, pkgH)
	if fp.Dies == 1 {
		return thermal.PlanarStack(fp.DieW, fp.DieH, top, opt)
	}
	bot := scaled.PowerMapCentered(1, nx, ny, pkgW, pkgH)
	return thermal.ThreeDStack(fp.DieW, fp.DieH,
		thermal.LogicDie(top), thermal.SRAMDie(bot), opt)
}

// solveLogicStack builds and solves the thermal stack for a logic
// floorplan whose block powers have been scaled by powerScale, on the
// spec's solver settings. key follows the solveStack contract.
func solveLogicStack(ctx context.Context, spec RunSpec, key string, fp *floorplan.Floorplan, powerScale float64) (*thermal.Field, error) {
	return solveStack(ctx, spec, key, buildLogicStack(fp, spec.Grid, powerScale))
}

// logicKey names a Figure 11 stack shape for workspace pooling.
func logicKey(o LogicOption, grid int) string {
	nx, _ := gridOrDefault(grid)
	return fmt.Sprintf("logic/%s/g%d", logicSlug(o), nx)
}

// RunLogicThermal solves one Figure 11 bar. spec.Grid <= 0 selects the
// default resolution. A non-converging solve surfaces
// thermal.ErrNotConverged wrapped with the option being solved.
func RunLogicThermal(ctx context.Context, spec RunSpec, o LogicOption) (LogicThermal, error) {
	fp, err := o.Floorplan()
	if err != nil {
		return LogicThermal{}, err
	}
	field, err := solveLogicStack(ctx, spec, logicKey(o, spec.Grid), fp, 1)
	if err != nil {
		return LogicThermal{}, fmt.Errorf("core: thermal solve for %s: %w", o, err)
	}
	nx, ny := gridOrDefault(spec.Grid)
	planar := floorplan.Pentium4Planar()
	return LogicThermal{
		Option:       o,
		PeakC:        field.Peak(),
		TotalPowerW:  fp.TotalPower(),
		DensityRatio: fp.StackedPeakDensity(nx, ny) / planar.PeakDensity(0, nx, ny),
	}, nil
}

// RunFigure11 solves all three bars.
func RunFigure11(ctx context.Context, spec RunSpec) ([]LogicThermal, error) {
	out := make([]LogicThermal, 0, 3)
	for _, o := range LogicOptions() {
		r, err := RunLogicThermal(ctx, spec, o)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// DefaultTable4Instructions is the per-profile instruction count
// RunTable4 replays when asked for none — the paper-sweep default.
const DefaultTable4Instructions = 200_000

// MaxTable4Instructions caps the per-profile instruction count
// RunTable4 accepts (10x the default). Each profile's program
// takes about 24 bytes per instruction, so an unbounded count from a
// request body could demand more memory than the host has, and the Go
// runtime's out-of-memory error is fatal to the whole process.
const MaxTable4Instructions = 2_000_000

// Table4Result bundles the Table 4 rows with the fold's aggregate
// pipeline verdict.
type Table4Result struct {
	Rows []synth.Table4Row
	// TotalGainPct is the combined performance gain of folding every
	// functionality at once (paper: ~15%).
	TotalGainPct float64
	// StagesEliminatedPct is the share of pipeline stages the full fold
	// removes (paper: ~25%).
	StagesEliminatedPct float64
}

// RunTable4 measures the per-functionality pipeline gains of the 3D
// fold (Table 4), replaying n instructions per profile (<= 0 selects
// DefaultTable4Instructions; above MaxTable4Instructions is an error).
// spec.Seed seeds the synthetic instruction profiles; the other spec
// fields are unused.
func RunTable4(ctx context.Context, spec RunSpec, n int) (Table4Result, error) {
	if n <= 0 {
		n = DefaultTable4Instructions
	}
	if n > MaxTable4Instructions {
		return Table4Result{}, fmt.Errorf("core: table4: %d instructions per profile exceeds the maximum %d", n, MaxTable4Instructions)
	}
	cfg := uarch.PlanarConfig()
	rows, totalGainPct, err := synth.Table4(ctx, cfg, spec.Seed, n)
	if err != nil {
		return Table4Result{}, err
	}
	removed, total := cfg.StagesEliminated(uarch.FullFold())
	return Table4Result{
		Rows:                rows,
		TotalGainPct:        totalGainPct,
		StagesEliminatedPct: float64(removed) / float64(total) * 100,
	}, nil
}

// RunTable5 computes the voltage/frequency scaling rows using the
// measured 3D thermal response. spec.Grid sizes the thermal solves.
func RunTable5(ctx context.Context, spec RunSpec) ([]power.Point, error) {
	laws := power.PaperLaws()
	design := power.Pentium4ThreeDDesign()

	threeD, err := Logic3D.Floorplan()
	if err != nil {
		return nil, err
	}
	// Conduction is linear: with the power-map shape fixed, peak
	// temperature is exactly affine in total power. One solve of the 3D
	// stack determines the whole response — the bisection then costs
	// nothing.
	base3DPower := threeD.TotalPower()
	ref, err := solveLogicStack(ctx, spec, logicKey(Logic3D, spec.Grid), threeD, 1)
	if err != nil {
		return nil, err
	}
	risePerWatt := (ref.Peak() - thermal.AmbientC) / base3DPower
	tempAt := func(powerW float64) float64 {
		return thermal.AmbientC + risePerWatt*powerW
	}
	baseline, err := RunLogicThermal(ctx, spec, LogicPlanar)
	if err != nil {
		return nil, err
	}
	return laws.Table5(design, tempAt, baseline.PeakC)
}

// RunPowerDerivation derives the Logic+Logic power saving from the
// two floorplans through the interconnect power model: half the global
// wire, the removed wire-stage latch banks, and a clock grid over half
// the footprint — the components the paper lists for its 15% figure.
// The derivation is closed-form and reads nothing from spec.
func RunPowerDerivation(ctx context.Context, spec RunSpec) (wire.SavingReport, error) {
	nets := append(floorplan.LoadToUseNets(),
		floorplan.Net{A: "L2", B: "bus", Weight: 4},
		floorplan.Net{A: "L2", B: "D$", Weight: 4},
		floorplan.Net{A: "FE", B: "TC", Weight: 2},
		floorplan.Net{A: "MOB", B: "D$", Weight: 2},
		floorplan.Net{A: "intRF", B: "F", Weight: 2},
		floorplan.Net{A: "uopQ", B: "sched", Weight: 2},
		floorplan.Net{A: "BPU", B: "FE", Weight: 2},
	)
	return wire.Pentium4PowerModel().DeriveSaving(wire.Pentium4Era(),
		floorplan.Pentium4Planar(), floorplan.Pentium4ThreeD(),
		nets, floorplan.Pentium4TotalW)
}

// WirePath pairs a named signal path with its derived planar/3D wire
// stage counts.
type WirePath struct {
	Path         string
	PlanarStages int
	FoldedStages int
}

// RunWireDerivation derives the dedicated wire pipe stages of the
// performance-critical paths from the planar and folded floorplans via
// the repeated-wire RC model — the physical rationale behind the
// Table 4 fold. The load-to-use path loses its planar wire stage and
// the FP register-read path loses both of its allocated cycles,
// matching the paper's narrative for Figures 9 and 10. Like the power
// derivation, it is closed-form and reads nothing from spec.
func RunWireDerivation(ctx context.Context, spec RunSpec) ([]WirePath, error) {
	tech := wire.Pentium4Era()
	paths := [][2]string{
		{"D$", "F"}, {"RF", "FP"}, {"RF", "SIMD"},
		{"sched", "F"}, {"sched", "FP"},
		{"TC", "rename"}, {"rename", "sched"},
	}
	reps, err := tech.ComparePaths(paths,
		floorplan.Pentium4Planar(), floorplan.Pentium4ThreeD())
	if err != nil {
		return nil, err
	}
	out := make([]WirePath, 0, len(reps))
	for _, r := range reps {
		out = append(out, WirePath{Path: r.Path, PlanarStages: r.Stages[0], FoldedStages: r.Stages[1]})
	}
	return out, nil
}
