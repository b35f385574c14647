package core

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"

	"diestack/internal/canon"
	"diestack/internal/harness"
	"diestack/internal/workload"
)

// This file defines the paper's full evaluation as a supervised
// campaign: every Figure 5 replay, every Figure 8 thermal solve, and
// every Figure 11 logic solve become independent harness jobs, so one
// hung replay or diverged solve cannot take down the sweep.

// CampaignSpec parameterizes the paper sweep: the per-experiment spec
// every job runs under, plus the campaign-only fields. RunSpec.Obs,
// when non-nil, also instruments the harness unless harness.Config.Obs
// is set separately, so one registry sees the whole campaign.
type CampaignSpec struct {
	RunSpec
	// Benchmarks restricts the Figure 5 replays to the named RMS
	// kernels; empty runs all of them.
	Benchmarks []string
	// SkipThermal drops the Figure 8 / Figure 11 jobs, leaving a
	// memory-performance-only campaign.
	SkipThermal bool
}

// CampaignJobs expands the spec into the job list: one job per
// (benchmark, option) replay named "fig5/<bench>/<cap>MB", one per
// option thermal solve named "fig8/thermal/<cap>MB", and one per logic
// option named "fig11/logic/<variant>". Job names are stable so
// manifests from identical specs are comparable.
func CampaignJobs(spec CampaignSpec) ([]harness.Job, error) {
	if err := spec.Validate(); err != nil {
		// Fail the whole campaign up front rather than every job
		// individually.
		return nil, err
	}
	benches := workload.All()
	if len(spec.Benchmarks) > 0 {
		benches = benches[:0]
		for _, name := range spec.Benchmarks {
			b, ok := workload.ByName(name)
			if !ok {
				return nil, fmt.Errorf("core: unknown benchmark %q (have %s)",
					name, strings.Join(workload.Names(), ", "))
			}
			benches = append(benches, b)
		}
	}

	// Every job dispatches through the experiment catalog — the same
	// entry-point surface the stackd service uses — and unwraps the
	// result value so manifests stay byte-identical to the direct-call
	// era.
	catalogJob := func(name, experiment string, params any) harness.Job {
		exp := mustExperiment(experiment)
		return harness.Job{
			Name: name,
			Run: func(ctx context.Context) (any, error) {
				res, err := exp.Run(ctx, ExperimentRequest{Spec: spec.RunSpec, Params: params})
				if err != nil {
					return nil, err
				}
				return res.Value, nil
			},
		}
	}
	var jobs []harness.Job
	for _, b := range benches {
		for _, o := range MemoryOptions() {
			jobs = append(jobs, catalogJob(
				fmt.Sprintf("fig5/%s/%dMB", b.Name, o.CapacityMB()),
				"memory-perf",
				&MemoryPerfParams{CapacityMB: o.CapacityMB(), Benchmark: b.Name}))
		}
	}
	if !spec.SkipThermal {
		for _, o := range MemoryOptions() {
			jobs = append(jobs, catalogJob(
				fmt.Sprintf("fig8/thermal/%dMB", o.CapacityMB()),
				"memory-thermal",
				&MemoryThermalParams{CapacityMB: o.CapacityMB()}))
		}
		for _, o := range LogicOptions() {
			jobs = append(jobs, catalogJob(
				"fig11/logic/"+logicSlug(o),
				"logic-thermal",
				&LogicThermalParams{Variant: logicSlug(o)}))
		}
	}
	return jobs, nil
}

// wireSpec is the serializable projection of a CampaignSpec: exactly
// the fields that determine the job list and every job's result. Obs
// is process-local and deliberately absent — each side of a
// distributed campaign instruments with its own registry.
//
//canon:wire
type wireSpec struct {
	Seed        uint64   `json:"seed"`
	Scale       float64  `json:"scale"`
	Grid        int      `json:"grid"`
	Benchmarks  []string `json:"benchmarks,omitempty"`
	SkipThermal bool     `json:"skip_thermal,omitempty"`
	// Method travels as the CLI spelling ("multigrid", "line-sor"), not
	// the enum ordinal, so the wire form stays self-describing. It is
	// omitted for thermal.MethodDefault, so default specs keep their
	// bytes and hash; an explicit line-SOR is always written. Omitted
	// bytes meant line-SOR before multigrid became the steady default,
	// which is why dist's protocol version fences older peers.
	Method string `json:"method,omitempty"`
}

// EncodeWire serializes the distributable fields of the spec in
// canonical form (internal/canon — the same codec stackd hashes its
// cache keys with): a coordinator sends these bytes to every worker,
// and hashes them to fence off workers configured for a different
// campaign. Encoding is deterministic (fixed field order), so equal
// specs encode to equal bytes.
func (spec CampaignSpec) EncodeWire() (json.RawMessage, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	rs := specWireFrom(spec.RunSpec)
	raw, err := canon.Marshal(wireSpec{
		Seed:        rs.Seed,
		Scale:       rs.Scale,
		Grid:        rs.Grid,
		Benchmarks:  spec.Benchmarks,
		SkipThermal: spec.SkipThermal,
		Method:      rs.Method,
	})
	if err != nil {
		return nil, fmt.Errorf("core: encoding campaign spec: %w", err)
	}
	return raw, nil
}

// DecodeWireSpec parses a spec encoded by EncodeWire. Unknown fields
// are rejected so version skew between coordinator and worker fails
// loudly instead of silently running a different campaign. The
// returned spec carries no Obs registry; the caller attaches its own.
func DecodeWireSpec(raw json.RawMessage) (CampaignSpec, error) {
	var w wireSpec
	if err := canon.Unmarshal(raw, &w); err != nil {
		return CampaignSpec{}, fmt.Errorf("core: decoding campaign spec: %w", err)
	}
	rs, err := specFromWire(specWire{Seed: w.Seed, Scale: w.Scale, Grid: w.Grid, Method: w.Method})
	if err != nil {
		return CampaignSpec{}, fmt.Errorf("core: decoding campaign spec: %w", err)
	}
	return CampaignSpec{RunSpec: rs, Benchmarks: w.Benchmarks, SkipThermal: w.SkipThermal}, nil
}

// logicSlug names a logic option in job-name form.
func logicSlug(o LogicOption) string {
	switch o {
	case LogicPlanar:
		return "planar"
	case Logic3D:
		return "3d"
	case Logic3DWorst:
		return "3d-worstcase"
	default:
		return fmt.Sprintf("option-%d", int(o))
	}
}

// RunCampaign expands the spec and executes it under the harness.
// When spec.Obs is set and cfg.Obs is not, the harness reports into
// the same registry as the jobs.
func RunCampaign(ctx context.Context, spec CampaignSpec, cfg harness.Config) (*harness.Manifest, error) {
	jobs, err := CampaignJobs(spec)
	if err != nil {
		return nil, err
	}
	if cfg.Obs == nil {
		cfg.Obs = spec.Obs
	}
	return harness.Run(ctx, cfg, jobs)
}
