// Command thermal3d is the standalone 3D die-stacking thermal tool:
// it prints the Table 2 material constants, solves the baseline planar
// thermal map (Figure 6), and runs the Figure 3 conductivity
// sensitivity sweep.
//
// Usage:
//
//	thermal3d             run everything
//	thermal3d -materials  Table 2 constants only
//	thermal3d -baseline   Figure 6 maps only
//	thermal3d -sweep      Figure 3 sweep only
//
// Dynamic thermal management (closed-loop DVFS on the 3D logic stack):
//
//	thermal3d -dtm -tmax 90                   hold 90C, report the cost
//	thermal3d -dtm -tmax 90 -sensor-noise 2   with a noisy sensor
//	thermal3d -dtm -tmax 90 -sensor-stuck 50  with a stuck sensor
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"

	"diestack/internal/core"
	"diestack/internal/dtm"
	"diestack/internal/fault"
	"diestack/internal/thermal"
)

// cli holds the shared flag group (-solver, profiling, -metrics-out,
// -progress); fatal needs it to flush metrics on error exits.
var cli *core.CLIFlags

func main() {
	var (
		matOnly   = flag.Bool("materials", false, "print the Table 2 constants and exit")
		baseOnly  = flag.Bool("baseline", false, "solve the Figure 6 baseline maps and exit")
		sweepOnly = flag.Bool("sweep", false, "run the Figure 3 sensitivity sweep and exit")
		grid      = flag.Int("grid", 0, "grid resolution (0 = default 64)")
		pngOut    = flag.String("png", "", "also write the Figure 6 thermal map to this PNG file")
		timeout   = flag.Duration("timeout", 0, "deadline for the whole run (0 = none)")

		dtmOn      = flag.Bool("dtm", false, "run closed-loop thermal management on the 3D logic stack and exit")
		tmax       = flag.Float64("tmax", 90, "DTM: peak temperature ceiling in degC")
		dtmHyst    = flag.Float64("dtm-hyst", 4, "DTM: guard/dead band in degC — size it to the heat-up per sample interval")
		dtmDt      = flag.Float64("dtm-dt", 0.25, "DTM: sample interval in seconds")
		dtmSteps   = flag.Int("dtm-steps", 240, "DTM: number of samples")
		dtmMinFreq = flag.Float64("dtm-minfreq", 0, "DTM: throttle floor as a fraction of nominal (0 = default)")

		sensorNoise  = flag.Float64("sensor-noise", 0, "sensor fault: gaussian noise sigma in degC")
		sensorOffset = flag.Float64("sensor-offset", 0, "sensor fault: constant calibration error in degC")
		sensorStuck  = flag.Float64("sensor-stuck", math.NaN(), "sensor fault: stuck-at reading in degC")
		faultSeed    = flag.Uint64("fault-seed", 0, "sensor fault schedule seed")
	)
	cli = core.RegisterCLIFlags(flag.CommandLine, true)
	flag.Parse()

	if *grid < 0 {
		fatal(fmt.Errorf("-grid must be non-negative, got %d", *grid))
	}
	if err := cli.Start(); err != nil {
		fatal(err)
	}
	defer cli.Stop()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	spec := core.RunSpec{Grid: *grid, Method: cli.Method(), Obs: cli.Obs()}
	if *dtmOn {
		if err := runDTM(ctx, spec, *tmax, *dtmHyst, *dtmDt, *dtmSteps, *dtmMinFreq,
			*sensorNoise, *sensorOffset, *sensorStuck, *faultSeed); err != nil {
			fatal(err)
		}
		return
	}

	all := !*matOnly && !*baseOnly && !*sweepOnly
	if *matOnly || all {
		printMaterials()
	}
	if *baseOnly || all {
		fmt.Println()
		if err := printBaseline(ctx, spec, *pngOut); err != nil {
			fatal(err)
		}
	}
	if *sweepOnly || all {
		fmt.Println()
		if err := printSweep(ctx, spec); err != nil {
			fatal(err)
		}
	}
}

// runDTM integrates the 3D logic stack with the DTM controller in the
// loop and reports the managed operating point and its cost.
func runDTM(ctx context.Context, spec core.RunSpec, tmax, hyst, dt float64, steps int, minFreq, noise, offset, stuck float64, seed uint64) error {
	cfg := dtm.Config{TmaxC: tmax, HysteresisC: hyst, MinFreq: minFreq}
	if err := cfg.Validate(); err != nil {
		return fmt.Errorf("dtm flags: %w", err)
	}
	if dt <= 0 || math.IsNaN(dt) {
		return fmt.Errorf("-dtm-dt must be positive, got %v", dt)
	}
	if steps <= 0 {
		return fmt.Errorf("-dtm-steps must be positive, got %d", steps)
	}
	fc := fault.Config{Seed: seed, SensorNoiseC: noise, SensorOffsetC: offset}
	if !math.IsNaN(stuck) {
		fc.SensorStuckAt = true
		fc.SensorStuckAtC = stuck
	}
	if err := fc.Validate(); err != nil {
		return fmt.Errorf("sensor flags: %w", err)
	}

	params := &core.ManagedThermalParams{
		Variant: core.Logic3D.Slug(), TmaxC: tmax, HysteresisC: hyst,
		MinFreq: minFreq, DtSeconds: dt, Steps: steps, Faults: faultParams(fc),
	}
	out, err := core.RunExperiment(ctx, "managed-logic-thermal",
		core.ExperimentRequest{Spec: spec, Params: params})
	if err != nil && !errors.Is(err, dtm.ErrThermalRunaway) {
		return err
	}
	// On runaway the catalog still carries the partial trajectory.
	res := out.Value.(core.ManagedLogicThermal)

	fmt.Printf("DTM on the 3D logic stack (Tmax %.1f degC, %d samples at %.2fs):\n", tmax, steps, dt)
	fmt.Printf("  unmanaged steady peak  %7.2f degC\n", res.UnmanagedPeakC)
	fmt.Printf("  managed peak           %7.2f degC\n", res.DTM.ManagedPeakC)
	st := res.DTM.Stats
	fmt.Printf("  interventions          %d throttle, %d emergency, %d release (%d/%d samples throttled)\n",
		st.ThrottleSteps, st.EmergencyDrops, st.ReleaseSteps, st.SamplesThrottled, st.Samples)
	fmt.Printf("  operating point        freq %.2f, perf %.1f%%, power %.1f%% of baseline\n",
		res.DTM.FinalFreq, res.DTM.PerfPct, res.DTM.PowerPct)
	if res.DTM.Fallback {
		fmt.Println("  stacked die PARKED (2D-equivalent fallback)")
	}
	if fc.Enabled() {
		fmt.Printf("  sensor                 %d reads, peak sensed %.2f vs true %.2f degC\n",
			res.Faults.SensorReads, st.PeakSensedC, st.PeakTrueC)
	}
	switch {
	case err != nil:
		fmt.Printf("  VERDICT: %v\n", err)
		cli.Stop()
		os.Exit(1)
	case res.DTM.ManagedPeakC > tmax:
		// No runaway, but sampling let the peak slip past the ceiling
		// between interventions.
		fmt.Printf("  VERDICT: Tmax exceeded transiently by %.2f degC — widen -dtm-hyst or shrink -dtm-dt\n",
			res.DTM.ManagedPeakC-tmax)
		cli.Stop()
		os.Exit(1)
	default:
		fmt.Println("  VERDICT: Tmax held")
	}
	return nil
}

func fatal(err error) {
	if cli != nil {
		cli.Stop()
	}
	fmt.Fprintln(os.Stderr, "thermal3d:", err)
	os.Exit(1)
}

// experiment dispatches one catalog experiment and returns its raw
// result value; every thermal3d mode goes through this single entry
// point.
func experiment(ctx context.Context, spec core.RunSpec, name string, params any) (any, error) {
	res, err := core.RunExperiment(ctx, name, core.ExperimentRequest{Spec: spec, Params: params})
	if err != nil {
		return nil, err
	}
	return res.Value, nil
}

// faultParams projects the validated sensor flag group onto the
// catalog's wire-shaped params (nil when no injection was requested).
func faultParams(fc fault.Config) *core.FaultParams {
	if !fc.Enabled() {
		return nil
	}
	return &core.FaultParams{
		Seed:           fc.Seed,
		SensorNoiseC:   fc.SensorNoiseC,
		SensorOffsetC:  fc.SensorOffsetC,
		SensorStuck:    fc.SensorStuckAt,
		SensorStuckAtC: fc.SensorStuckAtC,
	}
}

func printMaterials() {
	fmt.Println("Thermal constants (Table 2):")
	rows := []struct {
		name  string
		value string
	}{
		{"Si #1 thickness", fmt.Sprintf("%.0f um", thermal.Si1Thickness*1e6)},
		{"Si #2 thickness", fmt.Sprintf("%.0f um", thermal.Si2Thickness*1e6)},
		{"Si ther cond", fmt.Sprintf("%.0f W/mK", thermal.Silicon.Conductivity)},
		{"Cu metal thickness", fmt.Sprintf("%.0f um", thermal.CuMetalThickness*1e6)},
		{"Cu metal ther cond", fmt.Sprintf("%.0f W/mK", thermal.CuMetal.Conductivity)},
		{"Al metal thickness", fmt.Sprintf("%.0f um", thermal.AlMetalThickness*1e6)},
		{"Al metal ther cond", fmt.Sprintf("%.0f W/mK", thermal.AlMetal.Conductivity)},
		{"Bond thickness", fmt.Sprintf("%.0f um", thermal.BondThickness*1e6)},
		{"Bond ther cond", fmt.Sprintf("%.0f W/mK", thermal.BondLayer.Conductivity)},
		{"Ambient temperature", fmt.Sprintf("%.0f C", thermal.AmbientC)},
	}
	for _, r := range rows {
		fmt.Printf("  %-22s %s\n", r.name, r.value)
	}
}

// printBaseline solves the planar reference and renders the Figure 6
// temperature map as ASCII shading.
func printBaseline(ctx context.Context, spec core.RunSpec, pngOut string) error {
	v, err := experiment(ctx, spec, "fig6", nil)
	if err != nil {
		return err
	}
	maps := v.(core.Figure6Result)
	pd, tm := maps.PowerDensity, maps.Temperature
	if pngOut != "" {
		f, err := os.Create(pngOut)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := thermal.WritePNG(f, tm, 8); err != nil {
			return err
		}
		fmt.Printf("thermal map written to %s\n", pngOut)
	}
	peak, low := -1e9, 1e9
	for _, row := range tm {
		for _, v := range row {
			if v > peak {
				peak = v
			}
			if v < low {
				low = v
			}
		}
	}
	fmt.Printf("Figure 6 — baseline planar thermal map: peak %.2f degC (paper 88.35), coolest %.2f (paper 59)\n", peak, low)
	shades := []byte(" .:-=+*#%@")
	for y := len(tm) - 1; y >= 0; y -= 2 { // subsample rows for aspect ratio
		line := make([]byte, len(tm[y]))
		for x := range tm[y] {
			f := (tm[y][x] - low) / (peak - low + 1e-9)
			idx := int(f * float64(len(shades)-1))
			line[x] = shades[idx]
		}
		fmt.Printf("  %s\n", line)
	}
	// Peak power density for the power-map panel.
	var maxPD float64
	for _, row := range pd {
		for _, v := range row {
			if v > maxPD {
				maxPD = v
			}
		}
	}
	fmt.Printf("  peak power density %.2f W/mm2\n", maxPD/1e6)
	return nil
}

func printSweep(ctx context.Context, spec core.RunSpec) error {
	fmt.Println("Figure 3 — peak temperature vs layer conductivity (stacked microprocessor):")
	for _, layer := range []core.SweepLayer{core.SweepCuMetal, core.SweepBond} {
		slug := "cu-metal"
		if layer == core.SweepBond {
			slug = "bond"
		}
		v, err := experiment(ctx, spec, "fig3", &core.Fig3Params{Layer: slug})
		if err != nil {
			return err
		}
		pts := v.([]core.SensitivityPoint)
		fmt.Printf("  %s:\n", layer)
		for _, p := range pts {
			fmt.Printf("    k=%5.1f W/mK  peak %.2f degC\n", p.ConductivityWmK, p.PeakC)
		}
	}
	return nil
}
