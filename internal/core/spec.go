package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"diestack/internal/obs"
	"diestack/internal/thermal"
)

// RunSpec carries the cross-cutting parameters shared by every core
// experiment. Each Run* entry point reads only the fields it needs —
// a replay ignores Grid and Method, a thermal solve ignores Seed and
// Scale — so one spec can drive a whole campaign. The zero value
// means: seed 0, reference-scale traces are NOT selected (Scale must
// be positive for trace replays), default thermal grid and solver, no
// instrumentation.
type RunSpec struct {
	// Seed seeds trace generation (replay experiments).
	Seed uint64
	// Scale sizes the generated workload footprints (1.0 = the paper's
	// reference; tests use smaller).
	Scale float64
	// Grid is the thermal lateral resolution (<= 0 selects the default).
	Grid int
	// Parallelism is not read by any experiment and never travels on
	// the wire.
	//
	// Deprecated: ignored; solves are serial.
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

// ErrSpecRange marks a RunSpec field outside the range any experiment
// accepts; RunSpec.Validate wraps it with the offending field.
var ErrSpecRange = errors.New("core: spec out of range")

// Validate rejects a negative or non-finite Scale, a negative Grid and
// an unknown Method; zero stays valid for both numbers, as the wire
// default. Decoding a request or a campaign spec calls it, so a bad
// value is refused up front instead of silently running as another
// spec's workload under a cache key of its own.
func (s RunSpec) Validate() error {
	if s.Scale < 0 || math.IsNaN(s.Scale) || math.IsInf(s.Scale, 0) {
		return fmt.Errorf("%w: scale must be non-negative and finite, got %v", ErrSpecRange, s.Scale)
	}
	if s.Grid < 0 {
		return fmt.Errorf("%w: grid must be non-negative, got %d", ErrSpecRange, s.Grid)
	}
	return s.Method.Validate()
}

// solveStack solves s on the spec's solver settings (Method, Obs),
// routing through the spec's workspace cache when one is attached. key
// names the stack shape under the WorkspaceCache contract: every stack
// solved under one key must be built identically, so each call site
// derives its key from everything that shaped the stack (experiment,
// configuration, grid).
func solveStack(ctx context.Context, spec RunSpec, key string, s *thermal.Stack) (*thermal.Field, error) {
	return spec.Workspaces.Solve(ctx, key, s, thermal.SolveOptions{
		Method: spec.Method,
		Obs:    spec.Obs,
	})
}
