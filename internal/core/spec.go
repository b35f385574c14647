package core

import (
	"context"

	"diestack/internal/obs"
	"diestack/internal/thermal"
)

// RunSpec carries the cross-cutting parameters shared by every core
// experiment. Each Run* entry point reads only the fields it needs —
// a replay ignores Grid and Parallelism, a thermal solve ignores Seed
// and Scale — so one spec can drive a whole campaign. The zero value
// means: seed 0, reference-scale traces are NOT selected (Scale must
// be positive for trace replays), default thermal grid, serial solver,
// no instrumentation.
type RunSpec struct {
	// Seed seeds trace generation (replay experiments).
	Seed uint64
	// Scale sizes the generated workload footprints (1.0 = the paper's
	// reference; tests use smaller).
	Scale float64
	// Grid is the thermal lateral resolution (<= 0 selects the default).
	Grid int
	// Parallelism is the thermal solver's worker count per solve (0 =
	// serial; see thermal.SolveOptions.Parallelism).
	Parallelism int
	// Method selects the thermal iteration schedule. The zero value,
	// thermal.MethodDefault, runs multigrid for steady solves and
	// line-SOR for transients; see thermal.SolveOptions.Method.
	Method thermal.Method
	// Obs, when non-nil, receives metrics and spans from every substrate
	// the experiment exercises (memhier_*, dram_*, thermal_*, fault_*).
	// A nil registry costs nothing on the hot paths.
	Obs *obs.Registry
	// Workspaces, when non-nil, pools thermal discretizations across
	// solves: an experiment that revisits a stack shape reuses the
	// cached workspace instead of re-rasterizing. Pooled solves are
	// bit-identical to fresh ones; a nil cache means every solve starts
	// cold. Like Obs, it is process-local and never travels on the wire.
	Workspaces *thermal.WorkspaceCache
}

// solveStack solves s on the spec's solver settings (Method,
// Parallelism, Obs), routing through the spec's workspace cache when
// one is attached. key names the stack shape under the WorkspaceCache
// contract: every stack solved under one key must be built
// identically, so each call site derives its key from everything that
// shaped the stack (experiment, configuration, grid).
func solveStack(ctx context.Context, spec RunSpec, key string, s *thermal.Stack) (*thermal.Field, error) {
	return spec.Workspaces.Solve(ctx, key, s, thermal.SolveOptions{
		Method:      spec.Method,
		Parallelism: spec.Parallelism,
		Obs:         spec.Obs,
	})
}
