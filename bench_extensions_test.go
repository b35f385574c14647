// Benchmarks for the paper's stated-but-unexplored extensions: stacks
// taller than two dies, the transient response of the assembly, and
// the automated place-observe-repair fold. Run with:
//
//	go test -run NONE -bench Extension -benchtime 1x .
package diestack_test

import (
	"context"
	"fmt"
	"testing"

	"diestack/internal/core"
	"diestack/internal/floorplan"
	"diestack/internal/thermal"
)

// BenchmarkExtensionMultiDie climbs the tall-stack capacity ladder.
func BenchmarkExtensionMultiDie(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := core.RunMultiDieSweep(context.Background(), core.RunSpec{Grid: 48}, 5)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(pts[len(pts)-1].PeakC-pts[0].PeakC, "twoToFiveDieC")
		printOnce(b, i, func() {
			fmt.Printf("\nExtension: beyond two dies (CPU + n x 64MB DRAM)\n")
			for _, p := range pts {
				fmt.Printf("  %d dies (%3d MB): peak %6.2f degC at %5.1f W\n",
					p.Dies, p.CapacityMB, p.PeakC, p.TotalPowerW)
			}
		})
	}
}

// BenchmarkExtensionTransientWarmup steps the two-die memory stack
// from a cold start and extracts the thermal time constant.
func BenchmarkExtensionTransientWarmup(b *testing.B) {
	const grid = 40
	fp := floorplan.Core2DuoStacked32MB()
	pkgW, pkgH := thermal.DefaultPackageW, thermal.DefaultPackageH
	cpu := fp.PowerMapCentered(0, grid, grid, pkgW, pkgH)
	mem := fp.PowerMapCentered(1, grid, grid, pkgW, pkgH)
	stack := thermal.ThreeDStack(fp.DieW, fp.DieH,
		thermal.LogicDie(cpu), thermal.DRAMDie(mem),
		thermal.StackOptions{Nx: grid, Ny: grid})
	for i := 0; i < b.N; i++ {
		steady, err := thermal.Solve(context.Background(), stack, thermal.SolveOptions{})
		if err != nil {
			b.Fatal(err)
		}
		tr, err := thermal.SolveTransient(context.Background(), stack, thermal.TransientOptions{Dt: 1, Steps: 150})
		if err != nil {
			b.Fatal(err)
		}
		tau := tr.TimeToFraction(thermal.AmbientC, steady.Peak(), 0.632)
		b.ReportMetric(tau, "tauSeconds")
		printOnce(b, i, func() {
			fmt.Printf("\nExtension: transient warm-up of the 32MB stack (steady %.2f degC)\n", steady.Peak())
			for _, sec := range []int{1, 10, 30, 60, 150} {
				fmt.Printf("  t=%4ds: peak %6.2f degC\n", sec, tr.PeakC[sec-1])
			}
			fmt.Printf("  time constant ~%.0f s\n", tau)
		})
	}
}

// BenchmarkExtensionAutoFold compares the automatic fold against the
// hand-crafted Figure 10 floorplan.
func BenchmarkExtensionAutoFold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cmp, err := core.RunAutoFold(context.Background(), core.RunSpec{Grid: 48})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(cmp.Auto.PeakC, "autoPeakC")
		b.ReportMetric(cmp.Auto.DensityRatio, "autoDensityX")
		printOnce(b, i, func() {
			fmt.Printf("\nExtension: automatic place-observe-repair fold\n")
			fmt.Printf("  critical wire: planar %.2f mm -> hand %.2f mm, auto %.2f mm\n",
				cmp.PlanarWire*1e3, cmp.HandWire*1e3, cmp.AutoWire*1e3)
			fmt.Printf("  hand fold: %6.2f degC at density %.2fx\n", cmp.Hand.PeakC, cmp.Hand.DensityRatio)
			fmt.Printf("  auto fold: %6.2f degC at density %.2fx\n", cmp.Auto.PeakC, cmp.Auto.DensityRatio)
		})
	}
}
