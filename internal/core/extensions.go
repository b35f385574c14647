package core

import (
	"context"
	"fmt"

	"diestack/internal/floorplan"
	"diestack/internal/memhier"
	"diestack/internal/thermal"
)

// This file holds the paper's stated-but-unexplored extensions: stacks
// of more than two dies ("it is also possible to stack many die;
// however, this work limits the discussion to two die stacks") and the
// automated version of the place-observe-repair fold the authors ran
// by hand.

// MultiDiePoint is one rung of the tall-stack capacity ladder.
type MultiDiePoint struct {
	// Dies counts all dies including the CPU.
	Dies int
	// CapacityMB is the stacked DRAM capacity ((Dies-1) x 64 MB).
	CapacityMB int
	// PeakC is the solved peak temperature.
	PeakC float64
	// TotalPowerW includes the CPU and every DRAM die.
	TotalPowerW float64
}

// DefaultMaxDies is the ladder height a zero MultiDieRequest sweeps.
const DefaultMaxDies = 4

// MultiDieRequest parameterizes RunMultiDieSweep. Spec.Grid sizes the
// thermal solves; Spec.Method selects the solver.
type MultiDieRequest struct {
	Spec RunSpec
	// MaxDies is the tallest stack solved (<= 0 selects DefaultMaxDies;
	// an explicit value must be >= 2).
	MaxDies int
}

// RunMultiDieSweep solves the thermal stack for 2..MaxDies dies: the
// 92 W CPU plus (n-1) 64 MB DRAM dies at 6.2 W each. It quantifies the
// thermal price of going beyond the paper's two-die limit.
func RunMultiDieSweep(ctx context.Context, req MultiDieRequest) ([]MultiDiePoint, error) {
	spec := req.Spec
	maxDies := req.MaxDies
	if maxDies <= 0 {
		maxDies = DefaultMaxDies
	}
	if maxDies < 2 {
		return nil, fmt.Errorf("core: multi-die sweep needs MaxDies >= 2, got %d", maxDies)
	}
	nx, ny := gridOrDefault(spec.Grid)
	fp := floorplan.Core2DuoPlanar()
	pkgW, pkgH := thermal.DefaultPackageW, thermal.DefaultPackageH
	cpuMap := fp.PowerMapCentered(0, nx, ny, pkgW, pkgH)
	die := thermal.CenteredDie(pkgW, pkgH, fp.DieW, fp.DieH)

	dramMap := func() *thermal.PowerMap {
		pm := thermal.NewPowerMap(nx, ny)
		cw := pkgW / float64(nx)
		ch := pkgH / float64(ny)
		x0, x1 := int(die.X/cw), int((die.X+die.W)/cw)
		y0, y1 := int(die.Y/ch), int((die.Y+die.H)/ch)
		return pm.FillRect(x0, y0, x1, y1, floorplan.DRAM64MBPowerW)
	}

	out := make([]MultiDiePoint, 0, maxDies-1)
	for n := 2; n <= maxDies; n++ {
		dies := []thermal.DieSpec{thermal.LogicDie(cpuMap)}
		for i := 1; i < n; i++ {
			dies = append(dies, thermal.DRAMDie(dramMap()))
		}
		stack, err := thermal.MultiDieStack(fp.DieW, fp.DieH, dies, thermal.StackOptions{Nx: nx, Ny: ny})
		if err != nil {
			return nil, err
		}
		field, err := solveStack(ctx, spec, fmt.Sprintf("multidie/%dd/g%d", n, nx), stack)
		if err != nil {
			return nil, err
		}
		out = append(out, MultiDiePoint{
			Dies:        n,
			CapacityMB:  64 * (n - 1),
			PeakC:       field.Peak(),
			TotalPowerW: stack.TotalPower(),
		})
	}
	return out, nil
}

// MultiDieHierarchyConfig extends the Table 3 machine with an n-die
// DRAM cache: capacity and bank count scale with the number of DRAM
// dies (each die contributes 64 MB and 16 banks).
func MultiDieHierarchyConfig(dramDies int) (memhier.Config, error) {
	if dramDies < 1 || dramDies > 8 {
		return memhier.Config{}, fmt.Errorf("core: dramDies must be in [1,8], got %d", dramDies)
	}
	cfg := memhier.StackedDRAMConfig(64)
	cfg.L2.SizeBytes = uint64(dramDies) * 64 << 20
	cfg.DRAMArray.Banks = 16 * dramDies
	return cfg, nil
}

// AutoFoldComparison pits the automatic place-observe-repair fold
// against the hand-crafted Figure 10 floorplan.
type AutoFoldComparison struct {
	// Hand and Auto are the two folded designs' results.
	Hand, Auto LogicThermal
	// HandWire and AutoWire are the critical-net wire lengths.
	HandWire, AutoWire float64
	// PlanarWire is the unfolded reference.
	PlanarWire float64
}

// AutoFoldRequest parameterizes RunAutoFold. Spec.Grid sizes the
// thermal solves; Spec.Method selects the solver.
type AutoFoldRequest struct {
	Spec RunSpec
}

// RunAutoFold folds the planar Pentium 4-class floorplan automatically
// and compares it with the paper's hand fold.
func RunAutoFold(ctx context.Context, req AutoFoldRequest) (AutoFoldComparison, error) {
	spec := req.Spec
	planar := floorplan.Pentium4Planar()
	auto, err := floorplan.AutoFold(planar, floorplan.FoldOptions{
		DensityTarget: 1.35,
		PowerFactor:   floorplan.Pentium4ThreeDPowerFactor,
		CriticalNets: []floorplan.Net{
			{A: "D$", B: "F", Weight: 3},
			{A: "RF", B: "FP", Weight: 2},
		},
	})
	if err != nil {
		return AutoFoldComparison{}, err
	}

	var cmp AutoFoldComparison
	cmp.Hand, err = RunLogicThermal(ctx, spec, Logic3D)
	if err != nil {
		return AutoFoldComparison{}, err
	}
	nx, ny := gridOrDefault(spec.Grid)
	field, err := solveLogicStack(ctx, spec, fmt.Sprintf("logic/autofold/g%d", nx), auto, 1)
	if err != nil {
		return AutoFoldComparison{}, err
	}
	cmp.Auto = LogicThermal{
		Option:       Logic3D,
		PeakC:        field.Peak(),
		TotalPowerW:  auto.TotalPower(),
		DensityRatio: auto.StackedPeakDensity(nx, ny) / planar.PeakDensity(0, nx, ny),
	}

	nets := floorplan.LoadToUseNets()
	if cmp.PlanarWire, err = planar.WireLength(nets); err != nil {
		return AutoFoldComparison{}, err
	}
	hand, err := Logic3D.Floorplan()
	if err != nil {
		return AutoFoldComparison{}, err
	}
	if cmp.HandWire, err = hand.WireLength(nets); err != nil {
		return AutoFoldComparison{}, err
	}
	if cmp.AutoWire, err = auto.WireLength(nets); err != nil {
		return AutoFoldComparison{}, err
	}
	return cmp, nil
}
