// Command stackmem runs the Memory+Logic stacking study end to end:
// the Figure 5 CPMA/bandwidth sweep over the twelve RMS benchmarks,
// the Figure 7 power budgets, and the Figure 8 thermal comparison.
//
// Usage:
//
//	stackmem                 run everything at reference scale
//	stackmem -bench gauss    one benchmark only
//	stackmem -scale 0.25     smaller working sets (faster)
//	stackmem -config         print the Table 3 machine parameters
//	stackmem -power          print the Figure 7 power budgets
//	stackmem -thermal        print the Figure 8 temperatures
//
// Fault injection (stacked DRAM cache only; deterministic per seed):
//
//	stackmem -bench gauss -fault-uncorr 100          ECC storm
//	stackmem -bench gauss -fault-dead-banks 0,1,2,3  bank kill
//	stackmem -bench gauss -fault-tsv 0.25            via lane loss
//
// Supervised campaigns and checkpointed replays:
//
//	stackmem -campaign -jobs 4 -retries 1 -manifest out.json
//	stackmem -bench gauss -capacity 32 -checkpoint run.ckpt -checkpoint-every 100000
//	stackmem -bench gauss -capacity 32 -checkpoint run.ckpt -resume
//
// Distributed campaigns (one coordinator, any number of workers; the
// merged manifest is byte-identical to a single-process -campaign run):
//
//	stackmem -campaign -serve :9090 -manifest merged.json
//	stackmem -campaign -worker host:9090 -jobs 2 -worker-name w1
//
// Chaos drills (deterministic per -chaos-seed; serve and worker mode):
//
//	stackmem -campaign -serve :9090 -chaos-seed 7 -chaos-drop 5 -chaos-latency 2ms
//	stackmem -campaign -worker host:9090 -chaos-seed 8 -chaos-partial 3
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"diestack/internal/chaos"
	"diestack/internal/core"
	"diestack/internal/dist"
	"diestack/internal/fault"
	"diestack/internal/harness"
	"diestack/internal/memhier"
	"diestack/internal/thermal"
	"diestack/internal/trace"
	"diestack/internal/workload"
)

// cli holds the shared flag group (-solver, profiling, -metrics-out,
// -progress) and the exit path that flushes it.
var cli *core.CLIFlags

func main() {
	var (
		traceFile  = flag.String("trace", "", "replay a binary trace file instead of generating workloads")
		bench      = flag.String("bench", "", "run a single benchmark (default: all twelve)")
		scale      = flag.Float64("scale", 1.0, "workload scale factor (1.0 = paper-sized footprints)")
		seed       = flag.Uint64("seed", 1, "trace generation seed")
		grid       = flag.Int("grid", 0, "thermal grid resolution (0 = default 64)")
		showConfig = flag.Bool("config", false, "print the Table 3 machine parameters and exit")
		powerOnly  = flag.Bool("power", false, "print the Figure 7 power budgets and exit")
		thermOnly  = flag.Bool("thermal", false, "print the Figure 8 temperatures and exit")
		pngOut     = flag.String("png", "", "write the 32MB stack's thermal map (Figure 8b) to this PNG file")

		timeout    = flag.Duration("timeout", 0, "deadline for the whole run (campaign mode: per job attempt; 0 = none)")
		jobs       = flag.Int("jobs", 0, "campaign worker-pool size (0 = number of CPUs)")
		retries    = flag.Int("retries", 0, "campaign retries per failed or timed-out job")
		campaign   = flag.Bool("campaign", false, "run the paper sweep as a supervised parallel campaign")
		manifest   = flag.String("manifest", "", "write the campaign manifest JSON to this file (default stdout); worker mode: shard journal path")
		serveAddr  = flag.String("serve", "", "with -campaign: coordinate the sweep from this listen address, sharding jobs to workers")
		workerAddr = flag.String("worker", "", "with -campaign: pull jobs from the coordinator at this address (-bench/-seed/-scale come from the coordinator)")
		workerName = flag.String("worker-name", "", "worker identity, unique per campaign (default hostname-pid)")
		leaseTTL   = flag.Duration("lease-ttl", 15*time.Second, "serve mode: lease time-to-live without a worker heartbeat")
		leaseBdgt  = flag.Int("lease-budget", 0, "serve mode: lease re-issues per job before it is recorded failed (0 = 8)")
		drainTO    = flag.Duration("drain-timeout", 0, "serve mode: grace for in-flight leases on SIGTERM/interrupt before recording the rest canceled (0 = 5s)")
		ckptPath   = flag.String("checkpoint", "", "checkpoint file for a single-configuration supervised replay")
		ckptEvery  = flag.Int("checkpoint-every", 1<<20, "records between checkpoint snapshots")
		resumeFlag = flag.Bool("resume", false, "resume the -checkpoint replay from its last snapshot")
		capacity   = flag.Int("capacity", 32, "L2 capacity in MB for the checkpointed replay (4, 12, 32 or 64)")

		faultSeed   = flag.Uint64("fault-seed", 0, "fault schedule seed (same seed = same faults)")
		faultCorr   = flag.Float64("fault-corr", 0, "correctable ECC errors per million stacked-DRAM reads")
		faultUncorr = flag.Float64("fault-uncorr", 0, "uncorrectable ECC errors per million stacked-DRAM reads")
		faultBanks  = flag.String("fault-dead-banks", "", "comma-separated dead stacked-DRAM bank indices")
		faultTSV    = flag.Float64("fault-tsv", 0, "fraction of die-to-die via lanes failed, in [0,0.9]")

		chaosSeed      = flag.Uint64("chaos-seed", 0, "network fault schedule seed (same seed = same faults)")
		chaosDrop      = flag.Float64("chaos-drop", 0, "injected connection drops per thousand socket ops (serve/worker mode)")
		chaosPartial   = flag.Float64("chaos-partial", 0, "injected torn writes per thousand socket ops (serve/worker mode)")
		chaosPartition = flag.Float64("chaos-partition", 0, "injected one-way partitions per thousand socket ops (serve/worker mode)")
		chaosLatency   = flag.Duration("chaos-latency", 0, "max injected per-op latency (serve/worker mode; 0 = none)")
	)
	cli = core.RegisterCLIFlags(flag.CommandLine, "stackmem", true)
	flag.Parse()

	if *scale == 0 {
		cli.Fatal(fmt.Errorf("-scale must be positive, got 0"))
	}
	if *jobs < 0 {
		cli.Fatal(fmt.Errorf("-jobs must be non-negative, got %d", *jobs))
	}
	if *retries < 0 {
		cli.Fatal(fmt.Errorf("-retries must be non-negative, got %d", *retries))
	}
	if *ckptEvery <= 0 {
		cli.Fatal(fmt.Errorf("-checkpoint-every must be positive, got %d", *ckptEvery))
	}
	if *serveAddr != "" && *workerAddr != "" {
		cli.Fatal(fmt.Errorf("-serve and -worker are mutually exclusive"))
	}
	if (*serveAddr != "" || *workerAddr != "") && !*campaign {
		cli.Fatal(fmt.Errorf("-serve and -worker require -campaign"))
	}
	if *workerName != "" && *workerAddr == "" {
		cli.Fatal(fmt.Errorf("-worker-name only applies to -worker mode"))
	}
	if *leaseTTL <= 0 {
		cli.Fatal(fmt.Errorf("-lease-ttl must be positive, got %v", *leaseTTL))
	}
	if *leaseBdgt < 0 {
		cli.Fatal(fmt.Errorf("-lease-budget must be non-negative, got %d", *leaseBdgt))
	}
	flag.Visit(func(f *flag.Flag) {
		if (f.Name == "lease-ttl" || f.Name == "lease-budget" || f.Name == "drain-timeout") && *serveAddr == "" {
			cli.Fatal(fmt.Errorf("-%s only applies to -serve mode", f.Name))
		}
		if strings.HasPrefix(f.Name, "chaos-") && *serveAddr == "" && *workerAddr == "" {
			cli.Fatal(fmt.Errorf("-%s only applies to -serve or -worker mode", f.Name))
		}
	})
	if *drainTO < 0 {
		cli.Fatal(fmt.Errorf("-drain-timeout must be non-negative, got %v", *drainTO))
	}
	fc, err := faultConfig(*faultSeed, *faultCorr, *faultUncorr, *faultBanks, *faultTSV)
	if err != nil {
		cli.Fatal(err)
	}
	if err := cli.Start(); err != nil {
		cli.Fatal(err)
	}
	defer cli.Stop()
	spec := core.RunSpec{Seed: *seed, Scale: *scale, Grid: *grid,
		Method: cli.Method(), Obs: cli.Obs()}
	if err := spec.Validate(); err != nil {
		cli.Fatal(err)
	}
	injector, err := chaosInjector(*chaosSeed, *chaosDrop, *chaosPartial, *chaosPartition, *chaosLatency)
	if err != nil {
		cli.Fatal(err)
	}

	// A serving coordinator also drains on cancellation and leaves its
	// journal resumable. Campaign mode applies -timeout per job attempt.
	runTimeout := *timeout
	if *campaign {
		runTimeout = 0
	}
	ctx, stop := cli.Context(context.Background(), runTimeout)
	defer stop()

	switch {
	case *campaign && *serveAddr != "":
		if err := runCampaignServe(ctx, spec, *bench, *serveAddr, *leaseTTL, *leaseBdgt, *drainTO, *manifest, injector); err != nil {
			cli.Fatal(err)
		}
	case *campaign && *workerAddr != "":
		if err := runCampaignWorker(ctx, *workerAddr, *workerName, *jobs, *retries, *timeout, *manifest, injector); err != nil {
			cli.Fatal(err)
		}
	case *campaign:
		if err := runCampaign(ctx, spec, *bench, *jobs, *retries, *timeout, *manifest); err != nil {
			cli.Fatal(err)
		}
	case *ckptPath != "":
		if err := runCheckpointed(ctx, spec, *bench, *traceFile, *capacity, fc,
			*ckptPath, *ckptEvery, *resumeFlag); err != nil {
			cli.Fatal(err)
		}
	case *traceFile != "":
		if err := replayFile(ctx, spec, *traceFile, fc); err != nil {
			cli.Fatal(err)
		}
	case *showConfig:
		printConfig()
	case *powerOnly:
		printPower()
	case *thermOnly:
		if err := printThermal(ctx, spec); err != nil {
			cli.Fatal(err)
		}
		if *pngOut != "" {
			if err := writeThermalMap(ctx, spec, *pngOut); err != nil {
				cli.Fatal(err)
			}
		}
	default:
		if err := runPerf(ctx, spec, *bench, fc); err != nil {
			cli.Fatal(err)
		}
		fmt.Println()
		printPower()
		fmt.Println()
		if err := printThermal(ctx, spec); err != nil {
			cli.Fatal(err)
		}
	}
}

// runCampaign executes the paper sweep as a supervised campaign and
// writes the manifest. Failed jobs do not abort the sweep; they are
// recorded with their cause and the process exits non-zero.
func runCampaign(ctx context.Context, rs core.RunSpec, bench string,
	jobs, retries int, timeout time.Duration, manifestPath string) error {
	spec := core.CampaignSpec{RunSpec: rs}
	if bench != "" {
		spec.Benchmarks = []string{bench}
	}
	cfg := harness.Config{
		Workers: jobs,
		Timeout: timeout,
		Retries: retries,
		Backoff: 100 * time.Millisecond,
		Log: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "campaign: "+format+"\n", args...)
		},
	}
	m, err := core.RunCampaign(ctx, spec, cfg)
	if err != nil {
		return err
	}
	if err := writeManifest(m, manifestPath); err != nil {
		return err
	}
	if m.OK != len(m.Jobs) {
		cli.Exit(1)
	}
	return nil
}

// runCampaignServe coordinates a distributed campaign: it expands the
// sweep into job names, listens for workers, and writes the merged
// manifest. With -manifest set, a crash-safe journal rides alongside
// the manifest file, so a restarted coordinator resumes the merge
// instead of rerunning finished jobs; the journal is removed once the
// campaign runs to completion.
func runCampaignServe(ctx context.Context, rs core.RunSpec, bench, addr string,
	leaseTTL time.Duration, leaseBudget int, drainTimeout time.Duration,
	manifestPath string, injector *chaos.Injector) error {
	spec := core.CampaignSpec{RunSpec: rs}
	if bench != "" {
		spec.Benchmarks = []string{bench}
	}
	campaignJobs, err := core.CampaignJobs(spec)
	if err != nil {
		return err
	}
	names := make([]string, len(campaignJobs))
	for i, j := range campaignJobs {
		names[i] = j.Name
	}
	payload, err := spec.EncodeWire()
	if err != nil {
		return err
	}
	journalPath := ""
	if manifestPath != "" {
		journalPath = manifestPath + ".journal"
	}
	cfg := dist.CoordinatorConfig{
		Addr:          addr,
		Jobs:          names,
		SpecPayload:   payload,
		LeaseTTL:      leaseTTL,
		ReissueBudget: leaseBudget,
		DrainTimeout:  drainTimeout,
		JournalPath:   journalPath,
		Obs:           cli.Obs(),
		Log: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	}
	if injector != nil {
		cfg.Listen = injector.Listen
	}
	m, err := dist.RunCoordinator(ctx, cfg)
	var integrity *dist.IntegrityError
	if err != nil && !errors.As(err, &integrity) {
		return err
	}
	if err := writeManifest(m, manifestPath); err != nil {
		return err
	}
	if journalPath != "" && ctx.Err() == nil {
		// The campaign ran to completion; the journal has nothing left
		// to resume. An interrupted campaign keeps it for restart.
		os.Remove(journalPath)
	}
	if integrity != nil {
		fmt.Fprintln(os.Stderr, "campaign:", integrity)
	}
	if integrity != nil || m.OK != len(m.Jobs) {
		cli.Exit(1)
	}
	return nil
}

// runCampaignWorker joins a distributed campaign: the sweep definition
// comes from the coordinator, so only execution knobs (-jobs,
// -retries, -timeout) are local. Pass the same -retries/-timeout as a
// single-process run would use to keep attempt counts — and therefore
// the merged manifest bytes — identical. -manifest names this worker's
// shard journal: on restart the journaled results are resubmitted so
// finished work survives a worker crash.
func runCampaignWorker(ctx context.Context, addr, name string,
	parallel, retries int, timeout time.Duration, journalPath string,
	injector *chaos.Injector) error {
	if name == "" {
		host, err := os.Hostname()
		if err != nil {
			host = "worker"
		}
		name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	cfg := dist.WorkerConfig{
		Addr: addr,
		Name: name,
		MakeJobs: func(raw json.RawMessage) ([]harness.Job, error) {
			spec, err := core.DecodeWireSpec(raw)
			if err != nil {
				return nil, err
			}
			spec.Obs = cli.Obs()
			return core.CampaignJobs(spec)
		},
		Parallel:    parallel,
		JournalPath: journalPath,
		Harness: harness.Config{
			Timeout: timeout,
			Retries: retries,
			Backoff: 100 * time.Millisecond,
			Log: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "campaign: "+format+"\n", args...)
			},
		},
		Obs: cli.Obs(),
		Log: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	}
	if injector != nil {
		cfg.Dial = injector.Dial
	}
	return dist.RunWorker(ctx, cfg)
}

// chaosInjector assembles and validates the chaos flag group,
// returning nil when no fault injection was requested.
func chaosInjector(seed uint64, drop, partial, partition float64,
	latency time.Duration) (*chaos.Injector, error) {
	cfg := chaos.Config{
		Seed:               seed,
		DropPerKOp:         drop,
		PartialWritePerKOp: partial,
		PartitionPerKOp:    partition,
		LatencyMax:         latency,
		Obs:                cli.Obs(),
		Log: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	}
	if !cfg.Enabled() {
		return nil, nil
	}
	in, err := chaos.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("chaos flags: %w", err)
	}
	return in, nil
}

// writeManifest writes m to path, or stdout when path is empty, and
// prints the outcome summary.
func writeManifest(m *harness.Manifest, path string) error {
	out := os.Stdout
	if path != "" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	if err := m.WriteJSON(out); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "campaign: %d ok, %d failed, %d panicked, %d timeout, %d canceled\n",
		m.OK, m.Failed, m.Panicked, m.Timeout, m.Canceled)
	return nil
}

// runCheckpointed replays one benchmark (or trace file) against one
// capacity with periodic checkpoints, optionally resuming from the
// last snapshot. An interrupted run resumed this way produces exactly
// the result of an uninterrupted one.
func runCheckpointed(ctx context.Context, rs core.RunSpec, bench, traceFile string, capacityMB int,
	fc fault.Config, path string, every int, resume bool) error {
	o, err := core.MemoryOptionForCapacity(capacityMB)
	if capacityMB == 0 || err != nil {
		return fmt.Errorf("-capacity must be 4, 12, 32 or 64, got %d", capacityMB)
	}

	var stream trace.Stream
	name := traceFile
	switch {
	case traceFile != "":
		data, err := os.ReadFile(traceFile)
		if err != nil {
			return err
		}
		stream = trace.NewReader(bytes.NewReader(data))
	case bench != "":
		b, ok := workload.ByName(bench)
		if !ok {
			return fmt.Errorf("unknown benchmark %q (have %v)", bench, workload.Names())
		}
		stream = trace.NewSliceStream(b.Generate(rs.Seed, rs.Scale))
		name = bench
	default:
		return fmt.Errorf("-checkpoint needs -bench or -trace")
	}

	opt := memhier.RunOptions{CheckpointEvery: every, CheckpointPath: path, Obs: rs.Obs}
	if resume {
		cp, err := memhier.LoadCheckpoint(path)
		if err != nil {
			return err
		}
		opt.Resume = cp
		fmt.Fprintf(os.Stderr, "resuming from %s at record %d\n", path, cp.Records)
	}
	res, err := core.ReplayMemory(ctx, o, name, stream, fc, opt)
	if err != nil {
		return err
	}
	fmt.Printf("%dMB: CPMA %.3f  BW %.2f GB/s  traffic %.1f MB  records %d  refs %d\n",
		capacityMB, res.CPMA, res.BandwidthGBs, float64(res.OffDieBytes)/(1<<20), res.Records, res.Refs)
	return nil
}

// faultConfig assembles and validates the fault flag group.
func faultConfig(seed uint64, corr, uncorr float64, deadBanks string, tsv float64) (fault.Config, error) {
	fc := fault.Config{
		Seed:                    seed,
		CorrectablePerMAccess:   corr,
		UncorrectablePerMAccess: uncorr,
		TSVFailFrac:             tsv,
	}
	if deadBanks != "" {
		for _, s := range strings.Split(deadBanks, ",") {
			b, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil {
				return fault.Config{}, fmt.Errorf("-fault-dead-banks: bad index %q: %w", s, err)
			}
			fc.DeadBanks = append(fc.DeadBanks, b)
		}
	}
	if err := fc.Validate(); err != nil {
		return fault.Config{}, fmt.Errorf("fault flags: %w", err)
	}
	return fc, nil
}

// replayFile runs a tracegen-produced binary trace through all four
// configurations.
func replayFile(ctx context.Context, rs core.RunSpec, path string, fc fault.Config) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	fmt.Printf("replaying %s on the four configurations:\n", path)
	w := tabwriter.NewWriter(os.Stdout, 2, 0, 2, ' ', 0)
	header := "capacity\tCPMA\tBW GB/s\ttraffic MB\trecords"
	if fc.Enabled() {
		header += "\tECC fix\tpoisoned\tremapped"
	}
	fmt.Fprintln(w, header)
	for _, o := range core.MemoryOptions() {
		res, err := core.ReplayMemory(ctx, o, path, trace.NewReader(bytes.NewReader(data)), fc,
			memhier.RunOptions{Obs: rs.Obs})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s\t%.3f\t%.2f\t%.1f\t%d",
			o, res.CPMA, res.BandwidthGBs, float64(res.OffDieBytes)/(1<<20), res.Records)
		if fc.Enabled() {
			fmt.Fprintf(w, "\t%d\t%d\t%d",
				res.Faults.Corrected, res.Faults.LinesPoisoned, res.DRAMCache.Remapped)
		}
		fmt.Fprintln(w)
	}
	return w.Flush()
}

func printConfig() {
	fmt.Println("Machine parameters (Table 3):")
	for _, o := range core.MemoryOptions() {
		cfg, err := o.HierarchyConfig()
		if err != nil {
			cli.Fatal(err)
		}
		fmt.Printf("  %-8s L2 %2d MB (%s), line %dB, %d-way, tag latency %d cyc\n",
			o, o.CapacityMB(), cfg.L2Type, cfg.L2.LineBytes, cfg.L2.Ways, cfg.L2.Latency)
	}
	base, _ := core.Planar4MB.HierarchyConfig()
	fmt.Printf("  L1I/L1D: %d KB, %dB line, %d-way, %d cyc\n",
		base.L1D.SizeBytes>>10, base.L1D.LineBytes, base.L1D.Ways, base.L1D.Latency)
	fmt.Printf("  Main memory: %d banks, %d KB page, page open %d / precharge %d / read %d cyc, +%d interface\n",
		base.Memory.Banks, base.Memory.PageBytes>>10,
		base.Memory.Timing.PageOpen, base.Memory.Timing.Precharge, base.Memory.Timing.Read,
		base.Memory.Overhead)
	fmt.Printf("  Off-die bus: %.0f GB/s at %.1f GHz (%.0f mW/Gb/s)\n",
		base.BusBytesPerCycle*base.CoreGHz, base.CoreGHz, base.BusPicoJoulePerBit)
}

func runPerf(ctx context.Context, rs core.RunSpec, bench string, fc fault.Config) error {
	benches := workload.All()
	if bench != "" {
		b, ok := workload.ByName(bench)
		if !ok {
			return fmt.Errorf("unknown benchmark %q (have %v)", bench, workload.Names())
		}
		benches = []workload.Benchmark{b}
	}

	fmt.Printf("Figure 5 — CPMA and off-die bandwidth, scale %.2f:\n", rs.Scale)
	if fc.Enabled() {
		fmt.Printf("fault injection on the stacked DRAM cache: seed %d, %g corr + %g uncorr per M reads, %d dead bank(s), %.0f%% via lanes lost\n",
			fc.Seed, fc.CorrectablePerMAccess, fc.UncorrectablePerMAccess,
			len(fc.DeadBanks), fc.TSVFailFrac*100)
	}
	fig5, err := core.RunFigure5(ctx, rs, benches, fc)
	if err != nil {
		return err
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 0, 2, ' ', 0)
	header := "benchmark\tcapacity\tCPMA\tBW GB/s\tbus W\ttraffic MB"
	if fc.Enabled() {
		header += "\tECC fix\tpoisoned\tunrec\tremapped"
	}
	fmt.Fprintln(w, header)
	var faultTotal fault.Stats
	var remapTotal uint64
	for _, row := range fig5.Rows {
		for _, p := range row {
			fmt.Fprintf(w, "%s\t%s\t%.3f\t%.2f\t%.3f\t%.1f",
				p.Benchmark, p.Option, p.CPMA, p.BandwidthGBs, p.BusPowerW, float64(p.OffDieBytes)/(1<<20))
			if fc.Enabled() {
				fmt.Fprintf(w, "\t%d\t%d\t%d\t%d",
					p.Faults.Corrected, p.Faults.LinesPoisoned, p.Faults.Unrecovered, p.DRAMRemapped)
				faultTotal.Merge(p.Faults)
				remapTotal += p.DRAMRemapped
			}
			fmt.Fprintln(w)
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if fc.Enabled() {
		fmt.Printf("\nfault totals: %d ECC checks, %d corrected, %d uncorrectable (%d refetches, %d unrecovered), %d bank remaps, %d retry cycles added\n",
			faultTotal.ECCChecks, faultTotal.Corrected, faultTotal.Uncorrectable,
			faultTotal.Refetches, faultTotal.Unrecovered, remapTotal, faultTotal.RetryCyclesAdded)
	}

	if len(fig5.Rows) > 1 {
		h := fig5.Headline()
		fmt.Printf("\n32MB vs baseline: average CPMA reduction %.1f%% (paper 13%%), peak %.1f%% on %s (paper ~55%%)\n",
			h.AvgCPMAReductionPct, h.MaxCPMAReductionPct, h.MaxReductionBenchmark)
	}
	return nil
}

func printPower() {
	fmt.Println("Power budgets (Figure 7):")
	for _, o := range core.MemoryOptions() {
		fp, err := o.Floorplan()
		if err != nil {
			cli.Fatal(err)
		}
		if fp.Dies == 1 {
			fmt.Printf("  %-8s %6.1f W (planar die)\n", o, fp.TotalPower())
		} else {
			fmt.Printf("  %-8s %6.1f W (CPU die %.1f W + stacked die %.1f W)\n",
				o, fp.TotalPower(), fp.DiePower(0), fp.DiePower(1))
		}
	}
}

// writeThermalMap renders Figure 8(b): the 32MB stack's thermal map.
func writeThermalMap(ctx context.Context, rs core.RunSpec, path string) error {
	m, err := core.RunMemoryThermalMap(ctx, rs, core.Stacked32MB)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := thermal.WritePNG(f, m, 8); err != nil {
		return err
	}
	fmt.Printf("32MB stack thermal map written to %s\n", path)
	return nil
}

func printThermal(ctx context.Context, rs core.RunSpec) error {
	fmt.Println("Peak temperatures (Figure 8a):")
	rows, err := core.RunFigure8(ctx, rs)
	if err != nil {
		return err
	}
	paper := map[core.MemoryOption]float64{
		core.Planar4MB: 88.35, core.Stacked12MB: 92.85,
		core.Stacked32MB: 88.43, core.Stacked64MB: 90.27,
	}
	for _, r := range rows {
		fmt.Printf("  %-8s %6.2f degC  (paper %.2f)  total %6.1f W\n",
			r.Option, r.PeakC, paper[r.Option], r.TotalPowerW)
	}
	return nil
}
