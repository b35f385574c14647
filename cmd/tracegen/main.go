// Command tracegen generates, inspects, and validates RMS benchmark
// traces in the binary dependency-annotated trace format.
//
// Usage:
//
//	tracegen -list                          list the benchmarks
//	tracegen -bench gauss -o gauss.trace    write a trace file
//	tracegen -inspect gauss.trace           summarize a trace file
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"

	"diestack/internal/core"
	"diestack/internal/trace"
	"diestack/internal/workload"
)

func main() {
	var (
		list    = flag.Bool("list", false, "list available benchmarks and exit")
		bench   = flag.String("bench", "", "benchmark to generate")
		out     = flag.String("o", "", "output trace file (default <bench>.trace)")
		seed    = flag.Uint64("seed", 1, "generation seed")
		scale   = flag.Float64("scale", 1.0, "workload scale factor")
		inspect = flag.String("inspect", "", "summarize an existing trace file and exit")
		timeout = flag.Duration("timeout", 0, "deadline for reading/validating traces (0 = none)")
	)
	cli := core.RegisterCLIFlags(flag.CommandLine, "tracegen", false)
	flag.Parse()

	if *scale <= 0 || math.IsNaN(*scale) || math.IsInf(*scale, 0) {
		cli.Fatal(fmt.Errorf("-scale must be positive and finite, got %v", *scale))
	}
	if err := cli.Start(); err != nil {
		cli.Fatal(err)
	}
	defer cli.Stop()

	ctx, stop := cli.Context(context.Background(), *timeout)
	defer stop()
	switch {
	case *list:
		for _, b := range workload.All() {
			fits := "responds to stacked capacity"
			if b.FitsIn4MB {
				fits = "fits the 4MB baseline"
			}
			fmt.Printf("  %-8s %s (%s)\n", b.Name, b.Description, fits)
		}
	case *inspect != "":
		if err := inspectFile(ctx, *inspect); err != nil {
			cli.Fatal(err)
		}
	case *bench != "":
		if err := generate(*bench, *out, *seed, *scale); err != nil {
			cli.Fatal(err)
		}
	default:
		flag.Usage()
		cli.Exit(2)
	}
}

func generate(name, out string, seed uint64, scale float64) error {
	b, ok := workload.ByName(name)
	if !ok {
		return fmt.Errorf("unknown benchmark %q (use -list)", name)
	}
	if out == "" {
		out = name + ".trace"
	}
	recs := b.Generate(seed, scale)
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	defer f.Close()
	w := trace.NewWriter(f)
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	m := workload.Summarize(recs)
	fmt.Printf("%s: %d records (%d loads, %d stores, %d ifetches, %d with deps), footprint %.2f MB -> %s\n",
		name, len(recs), m.Loads, m.Stores, m.Ifetches, m.Deps,
		float64(workload.FootprintBytes(recs))/(1<<20), out)
	return nil
}

func inspectFile(ctx context.Context, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	recs, err := trace.Collect(ctx, trace.NewReader(f), 0)
	if err != nil {
		return err
	}
	if err := trace.Validate(ctx, trace.NewSliceStream(recs)); err != nil {
		return fmt.Errorf("trace invalid: %w", err)
	}
	m := workload.Summarize(recs)
	refs := 0
	for _, r := range recs {
		refs += r.Accesses()
	}
	fmt.Printf("%s: %d records (%d references with repeats), %d loads / %d stores / %d ifetches, %d dependent\n",
		path, len(recs), refs, m.Loads, m.Stores, m.Ifetches, m.Deps)
	fmt.Printf("footprint: %.2f MB across regions %v\n",
		float64(workload.FootprintBytes(recs))/(1<<20), workload.Regions(recs))
	return nil
}
