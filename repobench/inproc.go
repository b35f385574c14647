package main

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"diestack/internal/canon"
	"diestack/internal/core"
	"diestack/internal/dtm"
	"diestack/internal/floorplan"
	"diestack/internal/memhier"
	"diestack/internal/obs"
	"diestack/internal/power"
	"diestack/internal/thermal"
	"diestack/internal/trace"
	"diestack/internal/uarch"
	"diestack/internal/uarch/synth"
	"diestack/internal/workload"
)

// runner executes requests inside the benchmark process, set up the
// way stackd sets up a run: one metrics registry and one shared
// thermal workspace pool for every request.
type runner struct {
	reg *obs.Registry
	ws  *thermal.WorkspaceCache
	// pool mirrors ws for the traced path, which must time
	// discretization separately and so cannot go through ws.Solve.
	pool map[string]*thermal.Workspace
}

func newRunner() *runner {
	return &runner{
		reg:  obs.NewRegistry(),
		ws:   thermal.NewWorkspaceCache(thermal.DefaultWorkspaceCacheSize),
		pool: map[string]*thermal.Workspace{},
	}
}

func (r *runner) close() {
	r.ws.Close()
	for _, w := range r.pool {
		w.Close()
	}
}

// runResponse mirrors the body stackd writes for a successful run.
type runResponse struct {
	Experiment string `json:"experiment"`
	Value      any    `json:"value"`
}

// Untraced is one in-process core.RunExperiment and the encoding of
// its reply.
type Untraced struct {
	Body   []byte
	Value  any
	Run    time.Duration // core.RunExperiment
	Encode time.Duration // json.Marshal of the result
}

func decode(req Request) (core.Experiment, core.ExperimentRequest, error) {
	exp, ok := core.ExperimentByName(req.Experiment)
	if !ok {
		return exp, core.ExperimentRequest{}, fmt.Errorf("unknown experiment %q", req.Experiment)
	}
	er, err := exp.DecodeRequest(req.Body)
	return exp, er, err
}

// untraced runs req through core.RunExperiment and renders the body
// stackd would send for it.
func (r *runner) untraced(ctx context.Context, req Request) (Untraced, error) {
	_, er, err := decode(req)
	if err != nil {
		return Untraced{}, err
	}
	er.Spec.Obs = r.reg
	er.Spec.Workspaces = r.ws
	runtime.GC() // start from a clean heap, not the previous run's garbage
	t0 := time.Now()
	res, err := core.RunExperiment(ctx, req.Experiment, er)
	t1 := time.Now()
	if err != nil {
		return Untraced{}, fmt.Errorf("%s: %w", req.Experiment, err)
	}
	out, err := json.Marshal(runResponse{Experiment: res.Experiment, Value: res.Value})
	t2 := time.Now()
	if err != nil {
		return Untraced{}, err
	}
	return Untraced{Body: append(out, '\n'), Value: res.Value, Run: t1.Sub(t0), Encode: t2.Sub(t1)}, nil
}

// keyTime times the cache-key path stackd runs on every request:
// DecodeRequest, canonical EncodeRequest and SHA-256.
func keyTime(req Request) (time.Duration, error) {
	exp, ok := core.ExperimentByName(req.Experiment)
	if !ok {
		return 0, fmt.Errorf("unknown experiment %q", req.Experiment)
	}
	t0 := time.Now()
	er, err := exp.DecodeRequest(req.Body)
	if err != nil {
		return 0, err
	}
	c, err := exp.EncodeRequest(er)
	if err != nil {
		return 0, err
	}
	_ = canon.HashBytes(c) // timed, not needed
	return time.Since(t0), nil
}

// Layers is one request's traced run: the time spent in each layer's
// public entry points, called from here in the order core calls them,
// plus the layer counters.
type Layers struct {
	Generate, Replay, Raster, Discretize, Solve, Transient, Table4 time.Duration
	// Wall is the whole traced run, glue included.
	Wall time.Duration

	Records, Refs           uint64
	L2Hits, L2Accesses      uint64
	RowHits, RowAccesses    uint64
	Solves, Sweeps, Recover int

	// Check is the headline number of the traced run's result; it must
	// equal the untraced run's, proving both did the same work.
	Check float64
}

// Sum is the attributed layer time.
func (l Layers) Sum() time.Duration {
	return l.Generate + l.Replay + l.Raster + l.Discretize + l.Solve + l.Transient + l.Table4
}

// timed runs f and adds its duration to *d.
func timed(d *time.Duration, f func()) {
	t0 := time.Now()
	f()
	*d += time.Since(t0)
}

// traced re-runs req by calling each layer directly, timing every
// call. It supports the experiments the cold workloads send.
func (r *runner) traced(ctx context.Context, req Request) (Layers, error) {
	var l Layers
	runtime.GC()
	t0 := time.Now()
	exp, er, err := decode(req)
	if err != nil {
		return l, err
	}
	if er.Params == nil && exp.NewParams != nil {
		er.Params = exp.NewParams() // no params on the wire: all defaults
	}
	spec := er.Spec
	switch p := er.Params.(type) {
	case *core.MemoryPerfParams:
		err = r.traceReplay(ctx, &l, spec, p)
	case *core.Fig3Params:
		err = r.traceFig3(ctx, &l, spec, p)
	case *core.Table4Params:
		n := p.Instructions
		if n <= 0 {
			n = core.DefaultTable4Instructions
		}
		var total float64
		timed(&l.Table4, func() { _, total, err = synth.Table4(ctx, uarch.PlanarConfig(), spec.Seed, n) })
		l.Check = total
	case *core.ManagedThermalParams:
		err = r.traceDTM(ctx, &l, spec, p)
	default:
		err = fmt.Errorf("no traced path for %s", req.Experiment)
	}
	l.Wall = time.Since(t0)
	return l, err
}

func (r *runner) traceReplay(ctx context.Context, l *Layers, spec core.RunSpec, p *core.MemoryPerfParams) error {
	o, err := core.MemoryOptionForCapacity(p.CapacityMB)
	if err != nil {
		return err
	}
	cfg, err := o.HierarchyConfig()
	if err != nil {
		return err
	}
	b, ok := workload.ByName(p.Benchmark)
	if !ok {
		return fmt.Errorf("unknown benchmark %q", p.Benchmark)
	}
	var recs []trace.Record
	timed(&l.Generate, func() { recs = b.Generate(spec.Seed, spec.Scale) })
	var res memhier.Result
	timed(&l.Replay, func() {
		var sim *memhier.Simulator
		if sim, err = memhier.New(cfg); err == nil {
			res, err = sim.Run(ctx, trace.NewSliceStream(recs), memhier.RunOptions{Obs: r.reg})
		}
	})
	if err != nil {
		return err
	}
	l.Records = uint64(len(recs))
	l.Refs = res.Refs
	l.L2Hits, l.L2Accesses = res.L2.Hits, res.L2.Accesses
	l.RowHits = res.DRAMCache.Hits + res.Memory.Hits
	l.RowAccesses = res.DRAMCache.Accesses + res.Memory.Accesses
	l.Check = res.CPMA
	return nil
}

// gridOf applies core's default lateral resolution.
func gridOf(spec core.RunSpec) int {
	if spec.Grid <= 0 {
		return 64
	}
	return spec.Grid
}

func (r *runner) solveOpts(spec core.RunSpec) thermal.SolveOptions {
	return thermal.SolveOptions{Method: spec.Method, Parallelism: spec.Parallelism, Obs: r.reg}
}

// solve discretizes (unless pooled under key) and solves s.
func (r *runner) solve(ctx context.Context, l *Layers, spec core.RunSpec, key string, s *thermal.Stack) (*thermal.Field, error) {
	ws := r.pool[key]
	if ws == nil {
		var err error
		timed(&l.Discretize, func() { ws, err = thermal.NewWorkspace(s) })
		if err != nil {
			return nil, err
		}
		if key != "" {
			r.pool[key] = ws
		} else {
			defer ws.Close()
		}
	}
	var f *thermal.Field
	var err error
	timed(&l.Solve, func() { f, err = ws.Solve(ctx, r.solveOpts(spec)) })
	if err != nil {
		return nil, err
	}
	l.Solves++
	l.Sweeps += f.Sweeps()
	l.Recover += f.Recoveries()
	return f, nil
}

func (r *runner) traceFig3(ctx context.Context, l *Layers, spec core.RunSpec, p *core.Fig3Params) error {
	if len(p.Conductivities) != 1 {
		return fmt.Errorf("traced fig3 takes one conductivity, got %d", len(p.Conductivities))
	}
	n := gridOf(spec)
	fp := floorplan.Pentium4ThreeD()
	var top, bot *thermal.PowerMap
	timed(&l.Raster, func() {
		top = fp.PowerMapCentered(0, n, n, thermal.DefaultPackageW, thermal.DefaultPackageH)
		bot = fp.PowerMapCentered(1, n, n, thermal.DefaultPackageW, thermal.DefaultPackageH)
	})
	opt := thermal.StackOptions{Nx: n, Ny: n, TopH: thermal.PerformanceTopH}
	switch p.Layer {
	case "", "cu-metal":
		opt.CuMetalK = p.Conductivities[0]
	case "bond":
		opt.BondK = p.Conductivities[0]
	default:
		return fmt.Errorf("unknown layer %q", p.Layer)
	}
	s := thermal.ThreeDStack(fp.DieW, fp.DieH, thermal.LogicDie(top), thermal.SRAMDie(bot), opt)
	// Every conductivity is a new stack shape: nothing to pool.
	f, err := r.solve(ctx, l, spec, "", s)
	if err != nil {
		return err
	}
	l.Check = f.Peak()
	return nil
}

// logicStack rasterizes a logic floorplan and assembles its stack, as
// core does for Figure 11 and DTM runs.
func logicStack(l *Layers, fp *floorplan.Floorplan, n int) *thermal.Stack {
	var top, bot *thermal.PowerMap
	timed(&l.Raster, func() {
		scaled := fp.Clone().ScalePower(1)
		top = scaled.PowerMapCentered(0, n, n, thermal.DefaultPackageW, thermal.DefaultPackageH)
		if fp.Dies > 1 {
			bot = scaled.PowerMapCentered(1, n, n, thermal.DefaultPackageW, thermal.DefaultPackageH)
		}
	})
	opt := thermal.StackOptions{Nx: n, Ny: n, TopH: thermal.PerformanceTopH}
	if bot == nil {
		return thermal.PlanarStack(fp.DieW, fp.DieH, top, opt)
	}
	return thermal.ThreeDStack(fp.DieW, fp.DieH, thermal.LogicDie(top), thermal.SRAMDie(bot), opt)
}

func (r *runner) traceDTM(ctx context.Context, l *Layers, spec core.RunSpec, p *core.ManagedThermalParams) error {
	if p.Faults != nil {
		return fmt.Errorf("traced DTM runs take no faults")
	}
	o, err := core.LogicOptionForSlug(p.Variant)
	if err != nil {
		return err
	}
	fp, err := o.Floorplan()
	if err != nil {
		return err
	}
	n := gridOf(spec)
	// The unmanaged steady solve; stackd pools its discretization per
	// variant and grid.
	if _, err := r.solve(ctx, l, spec, fmt.Sprintf("logic/%s/g%d", p.Variant, n), logicStack(l, fp, n)); err != nil {
		return err
	}
	cfg := dtm.Config{TmaxC: p.TmaxC, HysteresisC: p.HysteresisC, MinFreq: p.MinFreq, Obs: r.reg}
	if cfg.TmaxC == 0 {
		cfg.TmaxC = core.DefaultManagedTmaxC
	}
	if fp.Dies > 1 {
		cfg.FallbackPowerFraction = fp.DiePower(0) / fp.TotalPower()
	}
	ctrl, err := dtm.New(cfg, power.PaperLaws(), core.DesignFor(o), nil)
	if err != nil {
		return err
	}
	topt := thermal.TransientOptions{
		Dt: p.DtSeconds, Steps: p.Steps,
		Parallelism: spec.Parallelism, Method: spec.Method, Obs: r.reg,
	}
	if topt.Dt == 0 {
		topt.Dt = core.DefaultManagedDt
	}
	if topt.Steps == 0 {
		topt.Steps = core.DefaultManagedSteps
	}
	s := logicStack(l, fp, n)
	var res dtm.Result
	timed(&l.Transient, func() { res, err = dtm.Run(ctx, s, topt, ctrl) })
	if err != nil {
		return err
	}
	l.Check = res.ManagedPeakC
	return nil
}

// headline extracts from an untraced result the number Layers.Check
// carries for the same request.
func headline(v any) (float64, bool) {
	switch x := v.(type) {
	case core.MemoryPerf:
		return x.CPMA, true
	case []core.SensitivityPoint:
		if len(x) == 1 {
			return x[0].PeakC, true
		}
	case core.Table4Result:
		return x.TotalGainPct, true
	case core.ManagedLogicThermal:
		return x.DTM.ManagedPeakC, true
	}
	return 0, false
}
