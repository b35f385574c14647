package core

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"sync"

	"diestack/internal/canon"
	"diestack/internal/dtm"
	"diestack/internal/fault"
	"diestack/internal/harness"
	"diestack/internal/thermal"
	"diestack/internal/workload"
)

// This file is the experiment catalog: every paper figure, table, and
// extension registered under one uniform entry point. The campaign
// expansion, the distributed workers and the stackd service dispatch
// through it, so "which experiments exist and what do they take" has
// exactly one answer; each runner is a one-line call of a typed Run*
// function, which the CLIs call directly (TestCatalogMatchesDirectCall
// pins the two paths equal). Each experiment also defines a canonical wire form
// (EncodeRequest/DecodeRequest) whose SHA-256 is the service's cache
// key: semantically equal requests — defaults spelled out or omitted —
// encode to equal bytes.

// ExperimentRequest invokes one catalog experiment: the cross-cutting
// spec plus the experiment's own parameters (a pointer to its params
// struct as returned by Experiment.NewParams, or nil for defaults).
type ExperimentRequest struct {
	Spec   RunSpec
	Params any
}

// ExperimentResult is the uniform return shape: the experiment's name
// and its native result value (e.g. a MemoryPerf, a []LogicThermal).
type ExperimentResult struct {
	Experiment string
	Value      any
}

// Experiment is one catalog entry: a named, documented runner with a
// typed parameter schema.
type Experiment struct {
	// Name is the catalog key and the URL path segment under
	// /v1/experiments/.
	Name string
	// Doc is a one-line description.
	Doc string
	// NewParams returns a zero parameter struct pointer, or is nil for
	// parameterless experiments. Field JSON tags (all omit-default)
	// define the wire schema.
	NewParams func() any
	// Runner executes the experiment. params is guaranteed to be the
	// type NewParams returns (never nil when NewParams is set).
	Runner func(ctx context.Context, spec RunSpec, params any) (any, error)

	// fn lists the exported core functions this entry dispatches to;
	// the catalog completeness test checks every Run* appears somewhere.
	fn []string
}

// Run invokes the experiment. A nil req.Params selects all-default
// parameters; a non-nil value must be the exact type NewParams
// returns. On error the result may still carry a partial value (the
// managed-thermal experiment returns its trajectory alongside
// dtm.ErrThermalRunaway).
func (e Experiment) Run(ctx context.Context, req ExperimentRequest) (ExperimentResult, error) {
	params, err := e.checkParams(req.Params)
	if err != nil {
		return ExperimentResult{}, err
	}
	v, err := e.Runner(ctx, req.Spec, params)
	return ExperimentResult{Experiment: e.Name, Value: v}, err
}

// checkParams validates req.Params against the experiment's schema and
// fills in the all-default struct when none were given.
func (e Experiment) checkParams(p any) (any, error) {
	if e.NewParams == nil {
		if p != nil {
			return nil, fmt.Errorf("core: experiment %q takes no parameters, got %T", e.Name, p)
		}
		return nil, nil
	}
	if p == nil {
		return e.NewParams(), nil
	}
	if want, got := reflect.TypeOf(e.NewParams()), reflect.TypeOf(p); got != want {
		return nil, fmt.Errorf("core: experiment %q wants %s parameters, got %T", e.Name, want, p)
	}
	return p, nil
}

// ParamsSchema lists the experiment's parameter fields as JSON field
// name → kind ("number", "string", "boolean", "array", "object"),
// derived from the params struct tags. Nil for parameterless
// experiments.
func (e Experiment) ParamsSchema() map[string]string {
	if e.NewParams == nil {
		return nil
	}
	t := reflect.TypeOf(e.NewParams()).Elem()
	out := make(map[string]string, t.NumField())
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		if name == "" || name == "-" {
			continue
		}
		switch f.Type.Kind() {
		case reflect.Pointer, reflect.Struct, reflect.Map:
			out[name] = "object"
		case reflect.Slice, reflect.Array:
			out[name] = "array"
		case reflect.String:
			out[name] = "string"
		case reflect.Bool:
			out[name] = "boolean"
		default:
			out[name] = "number"
		}
	}
	return out
}

// specWire is the canonical wire projection of RunSpec: exactly the
// fields that determine an experiment's result. Obs and Workspaces are
// process-local and deliberately absent. Every field omits its
// default, so a zero spec is the empty object.
//
//canon:wire
type specWire struct {
	Seed  uint64  `json:"seed,omitempty"`
	Scale float64 `json:"scale,omitempty"`
	Grid  int     `json:"grid,omitempty"`
	// Method travels as the CLI spelling ("multigrid", "line-sor"),
	// omitted for thermal.MethodDefault — the same convention as the
	// campaign wire spec. An explicit line-SOR is always written.
	Method string `json:"method,omitempty"`
}

func specWireFrom(spec RunSpec) specWire {
	w := specWire{Seed: spec.Seed, Scale: spec.Scale, Grid: spec.Grid}
	if spec.Method != thermal.MethodDefault {
		w.Method = spec.Method.String()
	}
	return w
}

func specFromWire(w specWire) (RunSpec, error) {
	m, err := thermal.ParseMethod(w.Method)
	if err != nil {
		return RunSpec{}, err
	}
	spec := RunSpec{Seed: w.Seed, Scale: w.Scale, Grid: w.Grid, Method: m}
	if err := spec.Validate(); err != nil {
		return RunSpec{}, err
	}
	return spec, nil
}

// requestWire is the canonical body of an experiment invocation — what
// stackd hashes into its cache key.
//
//canon:wire
type requestWire struct {
	Experiment string          `json:"experiment"`
	Spec       specWire        `json:"spec"`
	Params     json.RawMessage `json:"params,omitempty"`
}

// EncodeRequest renders req in canonical form: compact JSON with the
// experiment name, the spec's wire projection, and the params with
// every default omitted (all-default params vanish entirely, so "no
// params" and "explicit defaults" encode to the same bytes). The
// SHA-256 of these bytes is the request's cache key.
func (e Experiment) EncodeRequest(req ExperimentRequest) ([]byte, error) {
	if err := req.Spec.Validate(); err != nil {
		return nil, err
	}
	params, err := e.checkParams(req.Params)
	if err != nil {
		return nil, err
	}
	w := requestWire{Experiment: e.Name, Spec: specWireFrom(req.Spec)}
	if params != nil {
		raw, err := canon.Marshal(params)
		if err != nil {
			return nil, err
		}
		if string(raw) != "{}" {
			w.Params = raw
		}
	}
	return canon.Marshal(w)
}

// DecodeRequest parses a request body for this experiment. The
// "experiment" field may be omitted (the route names it) but must
// match when present; unknown fields anywhere are rejected.
func (e Experiment) DecodeRequest(data []byte) (ExperimentRequest, error) {
	var w requestWire
	if err := canon.Unmarshal(data, &w); err != nil {
		return ExperimentRequest{}, err
	}
	if w.Experiment != "" && w.Experiment != e.Name {
		return ExperimentRequest{}, fmt.Errorf("core: request names experiment %q, not %q", w.Experiment, e.Name)
	}
	spec, err := specFromWire(w.Spec)
	if err != nil {
		return ExperimentRequest{}, err
	}
	req := ExperimentRequest{Spec: spec}
	if len(w.Params) > 0 && string(w.Params) != "null" {
		if e.NewParams == nil {
			return ExperimentRequest{}, fmt.Errorf("core: experiment %q takes no parameters", e.Name)
		}
		p := e.NewParams()
		if err := canon.Unmarshal(w.Params, p); err != nil {
			return ExperimentRequest{}, err
		}
		req.Params = p
	}
	return req, nil
}

// MemoryOptionForCapacity maps a last-level capacity in MB onto its
// Figure 5 option (0 selects the planar baseline).
func MemoryOptionForCapacity(mb int) (MemoryOption, error) {
	if mb == 0 {
		return Planar4MB, nil
	}
	for _, o := range MemoryOptions() {
		if o.CapacityMB() == mb {
			return o, nil
		}
	}
	return 0, fmt.Errorf("core: no memory option with %d MB (have 4, 12, 32, 64)", mb)
}

// LogicOptionForSlug maps a job-name slug onto its Figure 11 option
// ("" selects the planar baseline; see logicSlug for the spellings).
func LogicOptionForSlug(s string) (LogicOption, error) {
	switch s {
	case "", "planar":
		return LogicPlanar, nil
	case "3d":
		return Logic3D, nil
	case "3d-worstcase":
		return Logic3DWorst, nil
	}
	return 0, fmt.Errorf("core: unknown logic variant %q (have planar, 3d, 3d-worstcase)", s)
}

// benchmarkForName resolves a benchmark ("" selects the first RMS
// kernel).
func benchmarkForName(name string) (workload.Benchmark, error) {
	if name == "" {
		return workload.All()[0], nil
	}
	b, ok := workload.ByName(name)
	if !ok {
		return workload.Benchmark{}, fmt.Errorf("core: unknown benchmark %q (have %s)",
			name, strings.Join(workload.Names(), ", "))
	}
	return b, nil
}

// sweepLayerForSlug resolves a Figure 3 layer ("" selects the Cu metal
// stack, the figure's dominant series).
func sweepLayerForSlug(s string) (SweepLayer, error) {
	switch s {
	case "", "cu-metal":
		return SweepCuMetal, nil
	case "bond":
		return SweepBond, nil
	}
	return 0, fmt.Errorf("core: unknown sweep layer %q (have cu-metal, bond)", s)
}

// FaultParams is the wire form of fault.Config: stacked-DRAM error
// rates, dead banks, via-lane loss, and sensor faults. The zero value
// injects nothing.
//
//canon:wire
type FaultParams struct {
	Seed              uint64  `json:"seed,omitempty"`
	CorrectablePerM   float64 `json:"correctable_per_m,omitempty"`
	UncorrectablePerM float64 `json:"uncorrectable_per_m,omitempty"`
	DeadBanks         []int   `json:"dead_banks,omitempty"`
	TSVFailFrac       float64 `json:"tsv_fail_frac,omitempty"`
	SensorNoiseC      float64 `json:"sensor_noise_c,omitempty"`
	SensorOffsetC     float64 `json:"sensor_offset_c,omitempty"`
	SensorStuck       bool    `json:"sensor_stuck,omitempty"`
	SensorStuckAtC    float64 `json:"sensor_stuck_at_c,omitempty"`
}

func (p *FaultParams) config() fault.Config {
	if p == nil {
		return fault.Config{}
	}
	return fault.Config{
		Seed:                    p.Seed,
		CorrectablePerMAccess:   p.CorrectablePerM,
		UncorrectablePerMAccess: p.UncorrectablePerM,
		DeadBanks:               p.DeadBanks,
		TSVFailFrac:             p.TSVFailFrac,
		SensorNoiseC:            p.SensorNoiseC,
		SensorOffsetC:           p.SensorOffsetC,
		SensorStuckAt:           p.SensorStuck,
		SensorStuckAtC:          p.SensorStuckAtC,
	}
}

// MemoryPerfParams selects one cell of the Figure 5 sweep.
//
//canon:wire
type MemoryPerfParams struct {
	// CapacityMB picks the configuration (4, 12, 32, 64; 0 = 4).
	CapacityMB int `json:"capacity_mb,omitempty"`
	// Benchmark names the RMS kernel ("" = the first).
	Benchmark string `json:"benchmark,omitempty"`
	// Faults, when set, injects stacked-DRAM faults into the replay.
	Faults *FaultParams `json:"faults,omitempty"`
}

// MemoryThermalParams selects one Figure 8 stack.
//
//canon:wire
type MemoryThermalParams struct {
	// CapacityMB picks the configuration (4, 12, 32, 64; 0 = 4).
	CapacityMB int `json:"capacity_mb,omitempty"`
}

// LogicThermalParams selects one Figure 11 bar.
//
//canon:wire
type LogicThermalParams struct {
	// Variant is planar, 3d, or 3d-worstcase ("" = planar).
	Variant string `json:"variant,omitempty"`
}

// Table4Params sizes the pipeline-gain measurement.
//
//canon:wire
type Table4Params struct {
	// Instructions per workload profile (0 = DefaultTable4Instructions).
	Instructions int `json:"instructions,omitempty"`
}

// Fig3Params selects the sensitivity sweep's layer and points.
//
//canon:wire
type Fig3Params struct {
	// Layer is cu-metal or bond ("" = cu-metal).
	Layer string `json:"layer,omitempty"`
	// Conductivities lists the swept values in W/mK (empty = the
	// paper's Figure 3 x-axis).
	Conductivities []float64 `json:"conductivities,omitempty"`
}

// MultiDieParams sizes the tall-stack sweep.
//
//canon:wire
type MultiDieParams struct {
	// MaxDies is the tallest stack solved (0 = DefaultMaxDies).
	MaxDies int `json:"max_dies,omitempty"`
}

// Defaults for the managed-thermal experiment, matching the thermal3d
// CLI's flag defaults.
const (
	DefaultManagedTmaxC = 90
	DefaultManagedDt    = 0.25
	DefaultManagedSteps = 240
)

// ManagedThermalParams configures the closed-loop DTM run.
//
//canon:wire
type ManagedThermalParams struct {
	// Variant is planar, 3d, or 3d-worstcase ("" = planar).
	Variant string `json:"variant,omitempty"`
	// TmaxC is the ceiling (0 = DefaultManagedTmaxC).
	TmaxC float64 `json:"tmax_c,omitempty"`
	// HysteresisC is the guard band (0 = the controller's default).
	HysteresisC float64 `json:"hysteresis_c,omitempty"`
	// MinFreq is the throttle floor (0 = the controller's default).
	MinFreq float64 `json:"min_freq,omitempty"`
	// DtSeconds is the sample interval (0 = DefaultManagedDt).
	DtSeconds float64 `json:"dt_s,omitempty"`
	// Steps is the sample count (0 = DefaultManagedSteps).
	Steps int `json:"steps,omitempty"`
	// Faults, when set, runs the controller through a faulty sensor.
	Faults *FaultParams `json:"faults,omitempty"`
}

// CampaignParams configures the full paper sweep (see CampaignSpec for
// the semantics; Seed/Scale/Grid come from the request spec).
//
//canon:wire
type CampaignParams struct {
	Benchmarks  []string `json:"benchmarks,omitempty"`
	SkipThermal bool     `json:"skip_thermal,omitempty"`
	// Workers and Retries are the harness execution knobs.
	Workers int `json:"workers,omitempty"`
	Retries int `json:"retries,omitempty"`
}

// Figure6Result pairs the two panels of Figure 6.
type Figure6Result struct {
	// PowerDensity is the active layer's power density map (W/m²).
	PowerDensity [][]float64
	// Temperature is the solved temperature map (degC).
	Temperature [][]float64
}

var (
	catalogOnce sync.Once
	catalog     []Experiment
	catalogIdx  map[string]int
)

// Experiments returns the catalog in stable registration order.
func Experiments() []Experiment {
	catalogOnce.Do(initCatalog)
	out := make([]Experiment, len(catalog))
	copy(out, catalog)
	return out
}

// ExperimentByName looks up one catalog entry.
func ExperimentByName(name string) (Experiment, bool) {
	catalogOnce.Do(initCatalog)
	i, ok := catalogIdx[name]
	if !ok {
		return Experiment{}, false
	}
	return catalog[i], true
}

// RunExperiment dispatches req to the named experiment — the uniform
// entry point behind the campaign jobs and stackd.
func RunExperiment(ctx context.Context, name string, req ExperimentRequest) (ExperimentResult, error) {
	e, ok := ExperimentByName(name)
	if !ok {
		return ExperimentResult{}, fmt.Errorf("core: unknown experiment %q", name)
	}
	return e.Run(ctx, req)
}

// mustExperiment resolves a catalog entry that registration guarantees
// exists; a miss is a programming error.
func mustExperiment(name string) Experiment {
	e, ok := ExperimentByName(name)
	if !ok {
		panic(fmt.Sprintf("core: experiment %q not registered", name))
	}
	return e
}

func initCatalog() {
	catalog = []Experiment{
		{
			Name:      "memory-perf",
			Doc:       "replay one benchmark against one Figure 5 configuration, optionally with stacked-DRAM fault injection",
			fn:        []string{"RunMemoryPerf"},
			NewParams: func() any { return &MemoryPerfParams{} },
			Runner: func(ctx context.Context, spec RunSpec, params any) (any, error) {
				p := params.(*MemoryPerfParams)
				o, err := MemoryOptionForCapacity(p.CapacityMB)
				if err != nil {
					return nil, err
				}
				b, err := benchmarkForName(p.Benchmark)
				if err != nil {
					return nil, err
				}
				return RunMemoryPerf(ctx, spec, o, b, p.Faults.config())
			},
		},
		{
			Name: "fig5",
			Doc:  "sweep every RMS benchmark over every memory configuration (Figure 5)",
			fn:   []string{"RunFigure5"},
			Runner: func(ctx context.Context, spec RunSpec, _ any) (any, error) {
				return RunFigure5(ctx, spec, workload.All(), fault.Config{})
			},
		},
		{
			Name:      "memory-thermal",
			Doc:       "solve one memory configuration's thermal stack (Figure 8a)",
			fn:        []string{"RunMemoryThermal"},
			NewParams: func() any { return &MemoryThermalParams{} },
			Runner: func(ctx context.Context, spec RunSpec, params any) (any, error) {
				o, err := MemoryOptionForCapacity(params.(*MemoryThermalParams).CapacityMB)
				if err != nil {
					return nil, err
				}
				return RunMemoryThermal(ctx, spec, o)
			},
		},
		{
			Name:      "memory-thermal-map",
			Doc:       "solve one memory configuration and return the CPU layer's temperature map (Figure 8b)",
			fn:        []string{"RunMemoryThermalMap"},
			NewParams: func() any { return &MemoryThermalParams{} },
			Runner: func(ctx context.Context, spec RunSpec, params any) (any, error) {
				o, err := MemoryOptionForCapacity(params.(*MemoryThermalParams).CapacityMB)
				if err != nil {
					return nil, err
				}
				return RunMemoryThermalMap(ctx, spec, o)
			},
		},
		{
			Name: "fig8",
			Doc:  "solve all four memory configurations (Figure 8a)",
			fn:   []string{"RunFigure8"},
			Runner: func(ctx context.Context, spec RunSpec, _ any) (any, error) {
				return RunFigure8(ctx, spec)
			},
		},
		{
			Name: "fig6",
			Doc:  "baseline planar power-density and temperature maps (Figure 6)",
			fn:   []string{"Figure6Maps"},
			Runner: func(ctx context.Context, spec RunSpec, _ any) (any, error) {
				pd, tm, err := Figure6Maps(ctx, spec)
				if err != nil {
					return nil, err
				}
				return Figure6Result{PowerDensity: pd, Temperature: tm}, nil
			},
		},
		{
			Name:      "fig3",
			Doc:       "peak temperature vs one layer's conductivity on the stacked microprocessor (Figure 3)",
			fn:        []string{"RunFigure3"},
			NewParams: func() any { return &Fig3Params{} },
			Runner: func(ctx context.Context, spec RunSpec, params any) (any, error) {
				p := params.(*Fig3Params)
				layer, err := sweepLayerForSlug(p.Layer)
				if err != nil {
					return nil, err
				}
				return RunFigure3(ctx, spec, layer, p.Conductivities)
			},
		},
		{
			Name:      "logic-thermal",
			Doc:       "solve one Figure 11 bar (planar, 3d, or 3d-worstcase)",
			fn:        []string{"RunLogicThermal"},
			NewParams: func() any { return &LogicThermalParams{} },
			Runner: func(ctx context.Context, spec RunSpec, params any) (any, error) {
				o, err := LogicOptionForSlug(params.(*LogicThermalParams).Variant)
				if err != nil {
					return nil, err
				}
				return RunLogicThermal(ctx, spec, o)
			},
		},
		{
			Name: "fig11",
			Doc:  "solve all three Logic+Logic bars (Figure 11)",
			fn:   []string{"RunFigure11"},
			Runner: func(ctx context.Context, spec RunSpec, _ any) (any, error) {
				return RunFigure11(ctx, spec)
			},
		},
		{
			Name:      "table4",
			Doc:       "per-functionality pipeline gains of the 3D fold (Table 4)",
			fn:        []string{"RunTable4"},
			NewParams: func() any { return &Table4Params{} },
			Runner: func(ctx context.Context, spec RunSpec, params any) (any, error) {
				return RunTable4(ctx, spec, params.(*Table4Params).Instructions)
			},
		},
		{
			Name: "table5",
			Doc:  "voltage/frequency scaling scenarios on the measured 3D thermal response (Table 5)",
			fn:   []string{"RunTable5"},
			Runner: func(ctx context.Context, spec RunSpec, _ any) (any, error) {
				return RunTable5(ctx, spec)
			},
		},
		{
			Name: "power-derivation",
			Doc:  "derive the Logic+Logic interconnect power saving from the two floorplans",
			fn:   []string{"RunPowerDerivation"},
			Runner: func(ctx context.Context, spec RunSpec, _ any) (any, error) {
				return RunPowerDerivation(ctx, spec)
			},
		},
		{
			Name: "wire-derivation",
			Doc:  "derive the critical-path wire pipe stages from the planar and folded floorplans",
			fn:   []string{"RunWireDerivation"},
			Runner: func(ctx context.Context, spec RunSpec, _ any) (any, error) {
				return RunWireDerivation(ctx, spec)
			},
		},
		{
			Name:      "multi-die",
			Doc:       "thermal ladder beyond the paper's two-die limit (CPU + n DRAM dies)",
			fn:        []string{"RunMultiDieSweep"},
			NewParams: func() any { return &MultiDieParams{} },
			Runner: func(ctx context.Context, spec RunSpec, params any) (any, error) {
				return RunMultiDieSweep(ctx, spec, params.(*MultiDieParams).MaxDies)
			},
		},
		{
			Name: "autofold",
			Doc:  "automatic place-observe-repair fold vs the hand-crafted Figure 10 fold",
			fn:   []string{"RunAutoFold"},
			Runner: func(ctx context.Context, spec RunSpec, _ any) (any, error) {
				return RunAutoFold(ctx, spec)
			},
		},
		{
			Name:      "managed-logic-thermal",
			Doc:       "closed-loop DTM on a logic stack, optionally through a faulty sensor",
			fn:        []string{"RunManagedLogicThermal"},
			NewParams: func() any { return &ManagedThermalParams{} },
			Runner: func(ctx context.Context, spec RunSpec, params any) (any, error) {
				p := params.(*ManagedThermalParams)
				o, err := LogicOptionForSlug(p.Variant)
				if err != nil {
					return nil, err
				}
				tmax := p.TmaxC
				if tmax == 0 {
					tmax = DefaultManagedTmaxC
				}
				dt := p.DtSeconds
				if dt == 0 {
					dt = DefaultManagedDt
				}
				steps := p.Steps
				if steps == 0 {
					steps = DefaultManagedSteps
				}
				cfg := dtm.Config{TmaxC: tmax, HysteresisC: p.HysteresisC, MinFreq: p.MinFreq}
				opt := thermal.TransientOptions{Dt: dt, Steps: steps, Method: spec.Method}
				return RunManagedLogicThermal(ctx, spec, o, cfg, p.Faults.config(), opt)
			},
		},
		{
			Name:      "campaign",
			Doc:       "the full paper sweep as a supervised campaign (one job per figure cell)",
			fn:        []string{"RunCampaign", "CampaignJobs"},
			NewParams: func() any { return &CampaignParams{} },
			Runner: func(ctx context.Context, spec RunSpec, params any) (any, error) {
				p := params.(*CampaignParams)
				cs := CampaignSpec{RunSpec: spec, Benchmarks: p.Benchmarks, SkipThermal: p.SkipThermal}
				return RunCampaign(ctx, cs, harness.Config{Workers: p.Workers, Retries: p.Retries})
			},
		},
	}
	catalogIdx = make(map[string]int, len(catalog))
	for i, e := range catalog {
		catalogIdx[e.Name] = i
	}
}
