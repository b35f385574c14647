// Quickstart: evaluate one 3D stacking design end to end — replay a
// memory-intensive RMS workload against the 32 MB stacked-DRAM cache,
// compare it with the planar baseline, and solve the thermal stack.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"diestack/internal/core"
	"diestack/internal/fault"
	"diestack/internal/workload"
)

func main() {
	// Pick the Gauss-Jordan solver: a 16 MB working set that thrashes
	// the planar 4 MB cache and fits the stacked 32 MB DRAM.
	bench, ok := workload.ByName("gauss")
	if !ok {
		log.Fatal("benchmark registry is missing gauss")
	}

	ctx := context.Background()
	spec := core.RunSpec{Seed: 1, Scale: 1.0, Grid: 48}
	// A zero fault.Config replays on a healthy stack.
	baseline, err := core.RunMemoryPerf(ctx, spec, core.Planar4MB, bench, fault.Config{})
	if err != nil {
		log.Fatal(err)
	}
	stacked, err := core.RunMemoryPerf(ctx, spec, core.Stacked32MB, bench, fault.Config{})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("gauss on the planar 4MB baseline: CPMA %.2f, off-die %.2f GB/s\n",
		baseline.CPMA, baseline.BandwidthGBs)
	fmt.Printf("gauss on the 3D 32MB DRAM cache:  CPMA %.2f, off-die %.2f GB/s\n",
		stacked.CPMA, stacked.BandwidthGBs)
	fmt.Printf("-> %.0f%% fewer cycles per access, %.1fx less bus traffic\n\n",
		(1-stacked.CPMA/baseline.CPMA)*100,
		float64(baseline.OffDieBytes)/float64(stacked.OffDieBytes))

	// And the thermal cost of stacking that DRAM die?
	for _, opt := range []core.MemoryOption{core.Planar4MB, core.Stacked32MB} {
		th, err := core.RunMemoryThermal(ctx, spec, opt)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8s peak %.2f degC at %.1f W total\n", opt, th.PeakC, th.TotalPowerW)
	}
	fmt.Println("\nThe stacked cache buys a large memory-system win for a near-zero thermal cost.")
}
