// tall_stack: go beyond the paper's two-die limit.
//
// The paper notes that "it is also possible to stack many die" but
// evaluates only two-die stacks. This example climbs the ladder: a
// CPU with one, two, then three 64 MB DRAM dies stacked behind it —
// checking the steady-state thermal price of each rung, the memory
// capacity it buys, and (via the transient solver) how long the
// assembly takes to heat up after a cold start.
//
// Run with: go run ./examples/tall_stack
package main

import (
	"context"
	"fmt"
	"log"

	"diestack/internal/core"
	"diestack/internal/floorplan"
	"diestack/internal/thermal"
)

const grid = 48

func main() {
	// Steady state: one rung at a time.
	fmt.Println("capacity ladder (steady state):")
	pts, err := core.RunMultiDieSweep(context.Background(), core.RunSpec{Grid: grid}, 4)
	if err != nil {
		log.Fatal(err)
	}
	base, err := core.RunMemoryThermal(context.Background(), core.RunSpec{Grid: grid}, core.Planar4MB)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  planar CPU only:           peak %6.2f degC, %5.1f W\n", base.PeakC, base.TotalPowerW)
	for _, p := range pts {
		fmt.Printf("  CPU + %d x 64MB (%3d MB):   peak %6.2f degC, %5.1f W\n",
			p.Dies-1, p.CapacityMB, p.PeakC, p.TotalPowerW)
	}

	// And the memory system: does a 128 MB cache still work?
	cfg, err := core.MultiDieHierarchyConfig(2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n128 MB two-die DRAM cache: %d banks, %d MB, valid config: %v\n",
		cfg.DRAMArray.Banks, cfg.L2.SizeBytes>>20, cfg.Validate() == nil)

	// Transient: how fast does the four-die stack heat up from a cold
	// start? The die responds in seconds; the sink mass dominates.
	fp := floorplan.Core2DuoPlanar()
	pkgW, pkgH := thermal.DefaultPackageW, thermal.DefaultPackageH
	cpu := thermal.LogicDie(fp.PowerMapCentered(0, grid, grid, pkgW, pkgH))
	die := thermal.CenteredDie(pkgW, pkgH, fp.DieW, fp.DieH)
	dram := func() thermal.DieSpec {
		pm := thermal.NewPowerMap(grid, grid)
		cw, ch := pkgW/grid, pkgH/grid
		pm.FillRect(int(die.X/cw), int(die.Y/ch), int((die.X+die.W)/cw), int((die.Y+die.H)/ch),
			floorplan.DRAM64MBPowerW)
		return thermal.DRAMDie(pm)
	}
	stack, err := thermal.MultiDieStack(fp.DieW, fp.DieH,
		[]thermal.DieSpec{cpu, dram(), dram(), dram()},
		thermal.StackOptions{Nx: grid, Ny: grid})
	if err != nil {
		log.Fatal(err)
	}
	steady, err := thermal.Solve(context.Background(), stack, thermal.SolveOptions{})
	if err != nil {
		log.Fatal(err)
	}
	tr, err := thermal.SolveTransient(context.Background(), stack, thermal.TransientOptions{Dt: 1, Steps: 120})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nfour-die stack warm-up (step power at t=0, steady peak %.2f degC):\n", steady.Peak())
	for _, sec := range []int{1, 5, 15, 30, 60, 120} {
		fmt.Printf("  t=%4ds: peak %6.2f degC, stored %6.0f J\n",
			sec, tr.PeakC[sec-1], tr.StoredJ[sec-1])
	}
	tau := tr.TimeToFraction(thermal.AmbientC, steady.Peak(), 0.632)
	fmt.Printf("  thermal time constant (63.2%% of the rise): ~%.0f s — the heat sink's mass, not the dies'\n", tau)
}
