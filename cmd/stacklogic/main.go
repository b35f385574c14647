// Command stacklogic runs the Logic+Logic stacking study: the Table 4
// pipeline-elimination sweep, the Figure 11 thermal comparison, and
// the Table 5 voltage/frequency scaling scenarios.
//
// Usage:
//
//	stacklogic            run everything
//	stacklogic -table4    pipeline gains only
//	stacklogic -thermal   Figure 11 only
//	stacklogic -table5    scaling scenarios only
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"text/tabwriter"

	"diestack/internal/core"
	"diestack/internal/harness"
)

func main() {
	var (
		t4Only    = flag.Bool("table4", false, "print Table 4 only")
		t5Only    = flag.Bool("table5", false, "print Table 5 only")
		thermOnly = flag.Bool("thermal", false, "print Figure 11 only")
		autoOnly  = flag.Bool("autofold", false, "run the automatic fold and compare with the hand fold")
		insts     = flag.Int("n", 200_000, "instructions per workload profile")
		seed      = flag.Uint64("seed", 1, "workload generation seed")
		grid      = flag.Int("grid", 0, "thermal grid resolution (0 = default 64)")
		timeout   = flag.Duration("timeout", 0, "deadline for the whole run (0 = none)")
		jobs      = flag.Int("jobs", 1, "solve the Figure 11 bars on this many parallel workers")
	)
	cli := core.RegisterCLIFlags(flag.CommandLine, "stacklogic", true)
	flag.Parse()

	if *insts <= 0 {
		cli.Fatal(fmt.Errorf("-n must be positive, got %d", *insts))
	}
	if *jobs <= 0 {
		cli.Fatal(fmt.Errorf("-jobs must be positive, got %d", *jobs))
	}
	if err := cli.Start(); err != nil {
		cli.Fatal(err)
	}
	defer cli.Stop()
	spec := core.RunSpec{Seed: *seed, Grid: *grid, Method: cli.Method(), Obs: cli.Obs()}
	if err := spec.Validate(); err != nil {
		cli.Fatal(err)
	}
	ctx, stop := cli.Context(context.Background(), *timeout)
	defer stop()

	if *autoOnly {
		if err := printAutoFold(ctx, spec); err != nil {
			cli.Fatal(err)
		}
		return
	}
	all := !*t4Only && !*t5Only && !*thermOnly
	if *t4Only || all {
		if err := printTable4(ctx, spec, *insts); err != nil {
			cli.Fatal(err)
		}
	}
	if *thermOnly || all {
		fmt.Println()
		if err := printFigure11(ctx, spec, *jobs); err != nil {
			cli.Fatal(err)
		}
	}
	if *t5Only || all {
		fmt.Println()
		if err := printTable5(ctx, spec); err != nil {
			cli.Fatal(err)
		}
	}
}

func printTable4(ctx context.Context, spec core.RunSpec, n int) error {
	t4, err := core.RunTable4(ctx, spec, n)
	if err != nil {
		return err
	}
	fmt.Println("Table 4 — Logic+Logic 3D stacking performance improvement:")
	w := tabwriter.NewWriter(os.Stdout, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "functionality\tstages eliminated\tpaper\tperf gain\tpaper")
	for _, r := range t4.Rows {
		paperStages := "Variable"
		if r.PaperStagesPct > 0 {
			paperStages = fmt.Sprintf("%.1f%%", r.PaperStagesPct)
		}
		fmt.Fprintf(w, "%s\t%.1f%%\t%s\t%.2f%%\t~%.2f%%\n",
			r.Name, r.StagesPct, paperStages, r.GainPct, r.PaperGainPct)
	}
	fmt.Fprintf(w, "Total\t%.1f%%\t~25%%\t%.2f%%\t~15%%\n", t4.StagesEliminatedPct, t4.TotalGainPct)
	if err := w.Flush(); err != nil {
		return err
	}

	paths, err := core.RunWireDerivation(ctx, spec)
	if err != nil {
		return err
	}
	fmt.Println("\nWire-derived stage counts (repeated-wire RC model on the two floorplans):")
	for _, p := range paths {
		fmt.Printf("  %-14s planar %d stage(s) -> 3D %d\n", p.Path, p.PlanarStages, p.FoldedStages)
	}

	saving, err := core.RunPowerDerivation(ctx, spec)
	if err != nil {
		return err
	}
	fmt.Printf("\nWire-derived power saving: planar interconnect %.1f W -> 3D %.1f W: %.1f W saved = %.1f%% of %d W (paper asserts 15%%)\n",
		saving.Planar.TotalW(), saving.Folded.TotalW(), saving.SavedW, saving.SavingPctOfTotal, 147)
	return nil
}

func printFigure11(ctx context.Context, spec core.RunSpec, jobs int) error {
	var rows []core.LogicThermal
	var err error
	if jobs > 1 {
		rows, err = runFigure11Parallel(ctx, spec, jobs)
	} else {
		rows, err = core.RunFigure11(ctx, spec)
	}
	if err != nil {
		return err
	}
	paper := map[core.LogicOption]float64{
		core.LogicPlanar: 98.6, core.Logic3D: 112.5, core.Logic3DWorst: 124.75,
	}
	fmt.Println("Figure 11 — peak temperature of the Logic+Logic floorplans:")
	for _, r := range rows {
		fmt.Printf("  %-13s %7.2f degC (paper %.2f)  %6.1f W, density %.2fx\n",
			r.Option, r.PeakC, paper[r.Option], r.TotalPowerW, r.DensityRatio)
	}
	return nil
}

// runFigure11Parallel solves the three Figure 11 bars as supervised
// harness jobs, each filling its own slot of the paper-order result.
func runFigure11Parallel(ctx context.Context, spec core.RunSpec, jobs int) ([]core.LogicThermal, error) {
	opts := core.LogicOptions()
	rows := make([]core.LogicThermal, len(opts))
	hjobs := make([]harness.Job, len(opts))
	for i, o := range opts {
		hjobs[i] = harness.Job{
			Name: o.String(),
			Run: func(ctx context.Context) (any, error) {
				var err error
				rows[i], err = core.RunLogicThermal(ctx, spec, o)
				return nil, err
			},
		}
	}
	m, err := harness.Run(ctx, harness.Config{Workers: jobs, Obs: spec.Obs}, hjobs)
	if err != nil {
		return nil, err
	}
	for _, o := range opts {
		if r, _ := m.Result(o.String()); r.Status != harness.StatusOK {
			return nil, fmt.Errorf("solve for %s %s: %s", o, r.Status, r.Error)
		}
	}
	return rows, nil
}

func printTable5(ctx context.Context, spec core.RunSpec) error {
	rows, err := core.RunTable5(ctx, spec)
	if err != nil {
		return err
	}
	fmt.Println("Table 5 — frequency and voltage scaling of the 3D floorplan:")
	w := tabwriter.NewWriter(os.Stdout, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "scenario\tpower W\tpower %\tperf %\tVcc\tfreq")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%.1f\t%.0f%%\t%.0f%%\t%.2f\t%.2f\n",
			r.Name, r.PowerW, r.PowerPct, r.PerfPct, r.Vcc, r.Freq)
	}
	return w.Flush()
}

func printAutoFold(ctx context.Context, spec core.RunSpec) error {
	cmp, err := core.RunAutoFold(ctx, spec)
	if err != nil {
		return err
	}
	fmt.Println("Automatic place-observe-repair fold vs the hand-crafted Figure 10 fold:")
	fmt.Printf("  critical wire: planar %.2f mm, hand fold %.2f mm, auto fold %.2f mm\n",
		cmp.PlanarWire*1e3, cmp.HandWire*1e3, cmp.AutoWire*1e3)
	fmt.Printf("  hand fold: peak %6.2f degC, density %.2fx, %5.1f W\n",
		cmp.Hand.PeakC, cmp.Hand.DensityRatio, cmp.Hand.TotalPowerW)
	fmt.Printf("  auto fold: peak %6.2f degC, density %.2fx, %5.1f W\n",
		cmp.Auto.PeakC, cmp.Auto.DensityRatio, cmp.Auto.TotalPowerW)
	return nil
}
