package thermal

import (
	"context"
	"errors"
	"math"

	"diestack/internal/obs"
)

// Workspace holds a discretized stack and its worker pool so repeated
// solves — divergence-recovery retries, transient time steps, DTM
// sample loops, sensitivity sweeps over the same geometry — skip
// re-discretization and re-allocation. Power map mutations between
// solves are picked up (sources are re-rasterized per solve); geometry
// or material mutations are not — build a new Workspace for those.
//
// A Workspace is not safe for concurrent use, and the Fields it
// returns own their data, so they remain valid after further solves or
// Close. Close releases the worker pool; it is required only when a
// solve ran with Parallelism > 0 (it is a no-op otherwise) but is
// always safe to defer.
//
// A Workspace keeps its iteration buffers between solves, so warm
// re-solves allocate no buffers, only the returned Field. A WorkspaceCache
// drops them after each solve instead (releaseBuffers); the next solve
// reallocates them.
type Workspace struct {
	sv   *solver
	pool *sweepPool
	// mg is the multigrid hierarchy, built lazily on the first
	// MethodMultigrid solve and reused by every solve after it (the
	// coarse operators depend only on the discretization, which a
	// Workspace never mutates). Steady-state V-cycles are
	// allocation-free once this exists.
	mg *mgHier
}

// NewWorkspace validates and discretizes the stack once, for many
// solves.
func NewWorkspace(s *Stack) (*Workspace, error) {
	sv, err := newSolver(s)
	if err != nil {
		return nil, err
	}
	return &Workspace{sv: sv}, nil
}

// Close stops the worker pool, if one was started. The Workspace must
// not be used afterwards. Close is idempotent.
func (w *Workspace) Close() {
	if w.pool != nil {
		w.pool.close()
		w.pool = nil
	}
}

// poolFor returns the sweep pool for the requested (validated) worker
// count, or nil for the serial path. The pool persists across solves
// and is rebuilt only when the worker count changes.
func (w *Workspace) poolFor(workers int) *sweepPool {
	if workers <= 0 {
		return nil
	}
	if w.pool != nil && w.pool.workers != workers {
		w.pool.close()
		w.pool = nil
	}
	if w.pool == nil {
		w.pool = newSweepPool(w.sv, workers)
	}
	return w.pool
}

// cycle runs one alternating-direction cycle (z, x, y sweeps) and
// returns the largest temperature change, on the pool when non-nil.
func (w *Workspace) cycle(pool *sweepPool) float64 {
	var d1, d2, d3 float64
	if pool != nil {
		d1 = pool.sweep(sweepKindZ)
		d2 = pool.sweep(sweepKindX)
		d3 = pool.sweep(sweepKindY)
	} else {
		d1 = w.sv.sweepZ()
		d2 = w.sv.sweepX()
		d3 = w.sv.sweepY()
	}
	return math.Max(d1, math.Max(d2, d3))
}

// hier returns the workspace's multigrid hierarchy, building it on
// first use, with its iteration buffers in place. The hierarchy
// aliases the solver's arrays on its fine level, so it always iterates
// the current sources and capacity terms.
func (w *Workspace) hier() *mgHier {
	if w.mg == nil {
		w.mg = newMGHier(w.sv)
	}
	w.mg.ensureBuffers(w.sv)
	return w.mg
}

// releaseBuffers drops the per-solve iteration buffers of the solver
// and the multigrid hierarchy, keeping the discretization and the
// coarse operators; the next solve reallocates them.
func (w *Workspace) releaseBuffers() {
	w.sv.dropBuffers()
	if w.mg != nil {
		w.mg.dropBuffers()
	}
}

// Solve computes the steady-state field, reusing the workspace's
// discretization, multigrid hierarchy, and worker pool. Semantics
// match the package-level Solve; the context is checked between
// cycles.
//
// A MethodMultigrid attempt that diverges falls back to damped
// line-SOR (the recovery ladder is method-aware: multigrid has no
// over-relaxation to damp, so the retry restarts line-SOR from a
// damped copy of its own default factor). Line-SOR attempts damp their
// own omega, as before.
func (w *Workspace) Solve(ctx context.Context, opt SolveOptions) (*Field, error) {
	if err := opt.Method.Validate(); err != nil {
		return nil, err
	}
	opt = opt.withDefaults()
	workers, err := checkParallelism(opt.Parallelism)
	if err != nil {
		return nil, err
	}
	pool := w.poolFor(workers)
	w.sv.ensureBuffers()
	sp := opt.Obs.StartSpan("thermal/solve")
	defer sp.End()
	method, omega := opt.Method, opt.Omega
	for attempt := 0; ; attempt++ {
		var f *Field
		var err error
		if method == MethodMultigrid {
			f, err = w.solveOnceMG(ctx, opt, omega, attempt)
		} else {
			f, err = w.solveOnce(ctx, opt, pool, omega, attempt)
		}
		var ce *ConvergenceError
		if errors.As(err, &ce) && ce.Diverged && attempt < opt.MaxRecoveries {
			opt.Obs.Counter("thermal_divergence_retries").Inc()
			method, omega = dampForRetry(method, omega, defaultSteadyOmega)
			continue
		}
		w.publishSolve(opt.Obs, f)
		return f, err
	}
}

// publishSolve records one finished steady solve into the registry.
func (w *Workspace) publishSolve(reg *obs.Registry, f *Field) {
	if reg == nil {
		return
	}
	reg.Counter("thermal_solves").Inc()
	reg.Gauge("thermal_residual").Set(w.sv.relResidual())
	if f != nil {
		reg.Counter("thermal_sweeps").Add(uint64(f.sweeps))
		reg.Gauge(obs.MetricPeakC).Set(f.Peak())
	}
}

// solveOnce runs one steady solve attempt at the given relaxation
// factor.
func (w *Workspace) solveOnce(ctx context.Context, opt SolveOptions, pool *sweepPool, omega float64, recoveries int) (*Field, error) {
	sv := w.sv
	sv.reset(omega)

	// Total boundary conductance, for the constant-mode correction.
	gBoundary := 0.0
	for i := range sv.gTop {
		gBoundary += sv.gTop[i] + sv.gBot[i]
	}

	// Divergence watchdog state: the first cycle's delta anchors the
	// growth test, and grow counts consecutive growing cycles.
	var delta0 float64
	prevDelta := math.Inf(1)
	grow := 0
	converged := false

	cycles := 0
	for ; cycles < opt.MaxCycles; cycles++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		maxDelta := w.cycle(pool)

		// Deflate the constant mode: a uniform temperature shift leaves
		// every interior balance unchanged but scales the boundary
		// outflow, so the global energy imbalance can be zeroed exactly.
		// Without this, the weakly-coupled boundary makes the overall
		// temperature level converge arbitrarily slowly.
		shift := (sv.totalPower - sv.heatOut()) / gBoundary
		for i := range sv.t {
			sv.t[i] += shift
		}
		if math.Abs(shift) > maxDelta {
			maxDelta = math.Abs(shift)
		}

		if cycles == 0 {
			delta0 = maxDelta
		}
		if maxDelta > prevDelta {
			grow++
		} else {
			grow = 0
		}
		prevDelta = maxDelta
		// Divergence: a non-finite update, an update far beyond any
		// physical temperature, or sustained geometric growth well
		// above the starting delta. Legitimate solves shrink deltas
		// from cycle one.
		if !isFinite(maxDelta) || maxDelta > 1e8 || (grow >= 25 && maxDelta > 100*delta0) {
			return nil, &ConvergenceError{
				Residual:   sv.relResidual(),
				Sweeps:     cycles + 1,
				Omega:      omega,
				Recoveries: recoveries,
				Diverged:   true,
			}
		}

		if maxDelta < 1e-4 {
			out := sv.heatOut()
			if sv.totalPower == 0 || math.Abs(out-sv.totalPower) <= opt.Tolerance*math.Max(sv.totalPower, 1e-9) {
				cycles++
				converged = true
				break
			}
		}
	}

	f := sv.field(cycles)
	f.recoveries = recoveries
	if !converged {
		return f, &ConvergenceError{
			Residual:   sv.relResidual(),
			Sweeps:     cycles,
			Omega:      omega,
			Recoveries: recoveries,
		}
	}
	return f, nil
}

// solveOnceMG runs one steady multigrid solve attempt. The structure
// mirrors solveOnce — same reset, constant-mode deflation, divergence
// watchdog, and convergence test — with one V-cycle taking the place
// of one alternating-direction cycle. The multigrid path is serial by
// construction (its red-black sweep order is already fixed and
// deterministic); Parallelism is validated as usual but only exercises
// the pool if the recovery ladder falls back to line-SOR.
func (w *Workspace) solveOnceMG(ctx context.Context, opt SolveOptions, omega float64, recoveries int) (*Field, error) {
	sv := w.sv
	sv.reset(omega)
	h := w.hier()
	h.beginSolve()
	defer h.publish(opt.Obs)

	gBoundary := 0.0
	for i := range sv.gTop {
		gBoundary += sv.gTop[i] + sv.gBot[i]
	}

	var delta0 float64
	prevDelta := math.Inf(1)
	grow := 0
	converged := false

	cycles := 0
	for ; cycles < opt.MaxCycles; cycles++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		copy(h.tPrev, sv.t)
		h.vcycle(omega)

		// Constant-mode deflation, exactly as in solveOnce: zero the
		// global energy imbalance with a uniform shift. The V-cycle's
		// coarsest level already moves this mode well, but the shift
		// makes the energy test exact and keeps the two schedules'
		// convergence contracts identical.
		shift := (sv.totalPower - sv.heatOut()) / gBoundary
		for i := range sv.t {
			sv.t[i] += shift
		}
		// The cycle's delta spans the whole V-cycle plus the shift
		// (coarse corrections land via prolongation, so per-column
		// smoother deltas alone would understate the update).
		maxDelta := maxAbsDiff(sv.t, h.tPrev)

		if cycles == 0 {
			delta0 = maxDelta
		}
		if maxDelta > prevDelta {
			grow++
		} else {
			grow = 0
		}
		prevDelta = maxDelta
		if !isFinite(maxDelta) || maxDelta > 1e8 || (grow >= 25 && maxDelta > 100*delta0) {
			return nil, &ConvergenceError{
				Residual:   sv.relResidual(),
				Sweeps:     cycles + 1,
				Omega:      omega,
				Recoveries: recoveries,
				Diverged:   true,
			}
		}

		if maxDelta < 1e-4 {
			out := sv.heatOut()
			if sv.totalPower == 0 || math.Abs(out-sv.totalPower) <= opt.Tolerance*math.Max(sv.totalPower, 1e-9) {
				cycles++
				converged = true
				break
			}
		}
	}

	f := sv.field(cycles)
	f.recoveries = recoveries
	if !converged {
		return f, &ConvergenceError{
			Residual:   sv.relResidual(),
			Sweeps:     cycles,
			Omega:      omega,
			Recoveries: recoveries,
		}
	}
	return f, nil
}
