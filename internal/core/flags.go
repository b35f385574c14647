package core

import (
	"flag"
	"fmt"
	"os"
	"sync"
	"time"

	"diestack/internal/obs"
	"diestack/internal/prof"
	"diestack/internal/thermal"
)

// CLIFlags groups the knobs every cmd shares — the thermal solver
// schedule, pprof output, and the observability sinks — so each binary
// registers them once instead of redeclaring the same flags. Register
// on the command's FlagSet before flag.Parse, then bracket main with
// Start/Stop:
//
//	cli := core.RegisterCLIFlags(flag.CommandLine, true)
//	flag.Parse()
//	if err := cli.Start(); err != nil { fatal(err) }
//	defer cli.Stop()
//	... pass cli.Obs() into RunSpec / harness.Config ...
type CLIFlags struct {
	// Solver is the raw -solver flag value ("", "sor" or
	// "multigrid"); Start parses it into the Method accessor. Only
	// registered when the cmd asked for it (cmds that run thermal
	// solves).
	Solver string
	// CPUProfile / MemProfile are pprof output paths ("" = off).
	CPUProfile string
	MemProfile string
	// MetricsOut is the JSONL metrics snapshot file ("" = off).
	MetricsOut string
	// Progress enables the live one-line progress reporter on stderr.
	Progress bool

	withSolver  bool
	method      thermal.Method
	reg         *obs.Registry
	exporter    *obs.Exporter
	progress    *obs.Progress
	metricsFile *os.File
	stopOnce    sync.Once
}

// RegisterCLIFlags registers the shared flags on fs and returns the
// holder. withSolver controls whether -solver is registered — cmds
// with no thermal solves (tracegen, stackd) skip it.
func RegisterCLIFlags(fs *flag.FlagSet, withSolver bool) *CLIFlags {
	f := &CLIFlags{withSolver: withSolver}
	if withSolver {
		fs.StringVar(&f.Solver, "solver", "", "thermal iteration schedule: sor or multigrid (default: multigrid for steady solves, sor for transients)")
	}
	fs.StringVar(&f.CPUProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&f.MemProfile, "memprofile", "", "write a heap profile to this file on exit")
	fs.StringVar(&f.MetricsOut, "metrics-out", "", "append JSONL metric snapshots to this file (final summary on exit)")
	fs.BoolVar(&f.Progress, "progress", false, "print a live progress line to stderr")
	return f
}

// Start validates the shared flags, starts profiling, and — when
// -metrics-out or -progress was given — creates the metrics registry
// with its exporter and progress reporter. Call Stop on every exit
// path (it is idempotent).
func (f *CLIFlags) Start() error {
	if f.withSolver {
		m, err := thermal.ParseMethod(f.Solver)
		if err != nil {
			return fmt.Errorf("-solver: %w", err)
		}
		f.method = m
	}
	if err := prof.Start(f.CPUProfile, f.MemProfile); err != nil {
		return err
	}
	if f.MetricsOut == "" && !f.Progress {
		return nil
	}
	f.reg = obs.NewRegistry()
	preRegister(f.reg)
	if f.MetricsOut != "" {
		file, err := os.Create(f.MetricsOut)
		if err != nil {
			prof.Stop()
			return fmt.Errorf("creating -metrics-out file: %w", err)
		}
		f.metricsFile = file
		f.exporter = obs.NewExporter(f.reg, file, time.Second)
	}
	if f.Progress {
		f.progress = obs.NewProgress(f.reg, os.Stderr, 0)
	}
	return nil
}

// Obs returns the registry Start created, or nil when observability
// was not requested — the nil registry is a free no-op everywhere it
// is passed.
func (f *CLIFlags) Obs() *obs.Registry { return f.reg }

// Method returns the thermal schedule Start parsed from -solver
// (MethodDefault when the flag was not registered or left empty).
func (f *CLIFlags) Method() thermal.Method { return f.method }

// Stop closes the progress reporter, flushes the final metrics
// snapshot, and stops profiling. Safe to call more than once and on
// paths where Start never ran.
func (f *CLIFlags) Stop() {
	f.stopOnce.Do(func() {
		if f.progress != nil {
			f.progress.Close()
		}
		if f.exporter != nil {
			if err := f.exporter.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "metrics: %v\n", err)
			}
		}
		if f.metricsFile != nil {
			if err := f.metricsFile.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "metrics: closing -metrics-out: %v\n", err)
			}
		}
	})
	prof.Stop()
}

// preRegister creates one representative instrument per substrate so
// every snapshot — including a campaign that never exercises DTM or
// fault injection — carries all five metric families with explicit
// zeros rather than omitting them.
func preRegister(reg *obs.Registry) {
	reg.Counter("memhier_records")
	reg.Counter("thermal_solves")
	reg.Counter("dtm_samples")
	reg.Counter("fault_ecc_checks")
	reg.Counter(obs.MetricJobsDone)
	reg.Gauge(obs.MetricJobsTotal)
	reg.Gauge(obs.MetricPeakC)
}
