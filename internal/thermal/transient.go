package thermal

import (
	"context"
	"errors"
	"fmt"
	"math"

	"diestack/internal/obs"
)

// TransientOptions tunes SolveTransient.
type TransientOptions struct {
	// Method selects the inner iteration schedule per implicit step:
	// MethodLineSOR (what MethodDefault resolves to here, unlike for
	// steady solves) or MethodMultigrid (V-cycles; every time step
	// reuses the once-allocated hierarchy). The default stays on
	// line-SOR because its 10-cycle inner budget does not fully
	// converge each step, and the published DTM peaks are pinned to
	// that schedule; see DESIGN.md. Unknown values are rejected with a
	// *MethodError wrapping ErrBadMethod.
	Method Method
	// Dt is the time step in seconds. Implicit Euler is
	// unconditionally stable, so Dt trades accuracy for speed; the die
	// responds in milliseconds and the sink in tens of seconds.
	Dt float64
	// Steps is the number of time steps to take.
	Steps int
	// InnerCycles is the number of inner cycles solved per implicit
	// step (default 10): alternating-direction cycles for
	// MethodLineSOR, V-cycles for MethodMultigrid.
	InnerCycles int
	// InitialC is the uniform starting temperature (default ambient).
	InitialC float64
	// Omega relaxes the inner line solves. The default is
	// method-aware: 1.5 for MethodLineSOR (the capacity term
	// strengthens the diagonal, so less relaxation is needed than for
	// steady solves), 1.0 for MethodMultigrid.
	Omega float64
	// MaxRecoveries bounds the divergence-recovery restarts: when a
	// step produces a non-finite temperature the whole integration is
	// restarted with a damped relaxation factor, then with a halved
	// time step (and doubled step count, preserving the horizon).
	// Zero selects the default (2); negative disables recovery.
	MaxRecoveries int
	// Parallelism runs the inner sweeps on this many pipelined workers
	// (0 = serial, the default), with the same bit-identical-to-serial
	// guarantee and validation as SolveOptions.Parallelism.
	Parallelism int
	// PowerScale, when non-nil, is consulted before every step with
	// the current simulated time and the previous step's peak
	// temperature, and returns a multiplier applied to all power maps
	// for the step. It is the hook for dynamic thermal management
	// studies: a thermostat or DVFS governor closes the loop here.
	// After a divergence recovery the integration restarts from t=0
	// and the hook is consulted again from the beginning.
	PowerScale func(t float64, peakC float64) float64
	// Obs, when non-nil, receives transient metrics (thermal_steps and
	// thermal_divergence_retries counters, a live thermal_peak_c gauge
	// updated every step) and a "thermal/transient" span per
	// integration. A nil registry costs nothing.
	Obs *obs.Registry
}

// defaultTransientOmega is the line-SOR relaxation default for
// transient inner solves; it anchors the multigrid→damped-SOR fallback
// ladder the same way defaultSteadyOmega does for steady solves.
const defaultTransientOmega = 1.5

func (o TransientOptions) withDefaults() TransientOptions {
	if o.Method == MethodDefault {
		o.Method = MethodLineSOR
	}
	if o.InnerCycles == 0 {
		o.InnerCycles = 10
	}
	if o.Omega == 0 {
		if o.Method == MethodMultigrid {
			o.Omega = 1.0
		} else {
			o.Omega = defaultTransientOmega
		}
	}
	if o.MaxRecoveries == 0 {
		o.MaxRecoveries = 2
	}
	if o.MaxRecoveries < 0 {
		o.MaxRecoveries = 0
	}
	return o
}

// TransientResult is a time-stepped solution.
type TransientResult struct {
	// Final is the temperature field after the last step.
	Final *Field
	// Times[i] is the simulated time after step i, in seconds.
	Times []float64
	// PeakC[i] is the hottest cell after step i.
	PeakC []float64
	// StoredJ[i] is the thermal energy stored above ambient after step
	// i, in joules (the integral of C·(T-Tamb)).
	StoredJ []float64
	// Scale[i] is the power multiplier the PowerScale hook applied at
	// step i (1.0 throughout when no hook is installed).
	Scale []float64
	// Recoveries counts the divergence-recovery restarts that were
	// needed (0 for a clean integration). Each restart damps the
	// relaxation factor; the final one also halves Dt. Dt reports the
	// step actually used.
	Recoveries int
	// Dt is the time step the successful integration actually used
	// (opt.Dt, or a halved value after recovery).
	Dt float64
}

// SolveTransient integrates the time-dependent conservation equation
// (the paper's Equation 1 with its ∂t term) by implicit Euler: each
// step solves the steady operator augmented with C/dt on the diagonal.
// Power maps are applied as a step input at t=0 from the uniform
// initial temperature, which answers "how fast does the stack heat
// up" — the question steady-state analysis cannot.
//
// Cancellation is cooperative: the context is checked between time
// steps, and ctx.Err() is returned as soon as the context is done.
//
// A step that produces a non-finite temperature (a diverging inner
// iteration, or a NaN injected through the power maps or the
// PowerScale hook) triggers recovery: the integration restarts with a
// damped relaxation factor, then with a halved time step, up to
// MaxRecoveries times before giving up with a *ConvergenceError
// wrapping ErrDiverged.
func SolveTransient(ctx context.Context, s *Stack, opt TransientOptions) (*TransientResult, error) {
	w, err := NewWorkspace(s)
	if err != nil {
		return nil, err
	}
	defer w.Close()
	return w.SolveTransient(ctx, opt)
}

// SolveTransient integrates the transient response, reusing the
// workspace's discretization and worker pool across every time step
// and recovery attempt. Semantics match the package-level
// SolveTransient.
func (w *Workspace) SolveTransient(ctx context.Context, opt TransientOptions) (*TransientResult, error) {
	if err := opt.Method.Validate(); err != nil {
		return nil, err
	}
	if opt.Dt <= 0 || opt.Steps <= 0 {
		return nil, fmt.Errorf("thermal: transient needs positive Dt and Steps, got %g/%d", opt.Dt, opt.Steps)
	}
	opt = opt.withDefaults()
	if opt.Omega <= 0 || opt.Omega >= 2 {
		return nil, fmt.Errorf("thermal: omega %g out of (0,2)", opt.Omega)
	}
	workers, err := checkParallelism(opt.Parallelism)
	if err != nil {
		return nil, err
	}
	pool := w.poolFor(workers)
	w.sv.ensureBuffers()
	sp := opt.Obs.StartSpan("thermal/transient")
	defer sp.End()

	method, omega := opt.Method, opt.Omega
	dt, steps := opt.Dt, opt.Steps
	for attempt := 0; ; attempt++ {
		res, err := w.transientOnce(ctx, opt, pool, method, omega, dt, steps, attempt)
		var ce *ConvergenceError
		if errors.As(err, &ce) && ce.Diverged && attempt < opt.MaxRecoveries {
			opt.Obs.Counter("thermal_divergence_retries").Inc()
			// Method-aware ladder: multigrid falls back to damped
			// line-SOR; line-SOR damps its own factor.
			method, omega = dampForRetry(method, omega, defaultTransientOmega)
			if attempt+1 == opt.MaxRecoveries {
				// Last resort: also halve the time step, doubling the
				// step count to preserve the simulated horizon.
				dt /= 2
				steps *= 2
			}
			continue
		}
		return res, err
	}
}

// transientOnce runs one integration attempt.
func (w *Workspace) transientOnce(ctx context.Context, opt TransientOptions, pool *sweepPool, method Method, omega, dt float64, steps, recoveries int) (*TransientResult, error) {
	sv := w.sv
	sv.reset(omega)
	if opt.InitialC != 0 {
		for i := range sv.t {
			sv.t[i] = opt.InitialC
		}
	}

	for i := range sv.capOverDt {
		sv.capOverDt[i] = sv.cellCap[i] / dt
	}
	copy(sv.tOld, sv.t)

	// The hierarchy restricts the capacity terms per attempt (they
	// depend on dt, which recovery halves), so beginSolve runs after
	// capOverDt is in place.
	var h *mgHier
	if method == MethodMultigrid {
		h = w.hier()
		h.beginSolve()
		defer h.publish(opt.Obs)
	}

	res := &TransientResult{
		Times:      make([]float64, 0, steps),
		PeakC:      make([]float64, 0, steps),
		StoredJ:    make([]float64, 0, steps),
		Scale:      make([]float64, 0, steps),
		Recoveries: recoveries,
		Dt:         dt,
	}
	prevPeak := sv.t[0]
	for _, v := range sv.t {
		if v > prevPeak {
			prevPeak = v
		}
	}
	stepCount := opt.Obs.Counter("thermal_steps")
	peakGauge := opt.Obs.Gauge(obs.MetricPeakC)
	for step := 1; step <= steps; step++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		scale := 1.0
		if opt.PowerScale != nil {
			scale = opt.PowerScale(float64(step-1)*dt, prevPeak)
			if scale < 0 {
				scale = 0
			}
		}
		// Implicit Euler right-hand side: q·scale + (C/dt)·T_old.
		copy(sv.tOld, sv.t)
		for i := range sv.q {
			sv.q[i] = sv.baseQ[i]*scale + sv.capOverDt[i]*sv.tOld[i]
		}
		lastDelta := 0.0
		for c := 0; c < opt.InnerCycles; c++ {
			if h != nil {
				copy(h.tPrev, sv.t)
				h.vcycle(omega)
				lastDelta = maxAbsDiff(sv.t, h.tPrev)
			} else {
				lastDelta = w.cycle(pool)
			}
			if lastDelta < 1e-6 {
				break
			}
		}
		res.Times = append(res.Times, float64(step)*dt)
		peak := math.Inf(-1)
		stored := 0.0
		for i, v := range sv.t {
			if v > peak {
				peak = v
			}
			stored += sv.cellCap[i] * (v - sv.s.AmbientC)
		}
		// Divergence: a non-finite inner update or temperature means
		// the step polluted the field; the caller restarts damped.
		if !isFinite(lastDelta) || !isFinite(peak) {
			return nil, &ConvergenceError{
				Residual:   lastDelta,
				Sweeps:     step,
				Omega:      omega,
				Recoveries: recoveries,
				Diverged:   true,
			}
		}
		res.PeakC = append(res.PeakC, peak)
		res.StoredJ = append(res.StoredJ, stored)
		res.Scale = append(res.Scale, scale)
		stepCount.Inc()
		peakGauge.Set(peak)
		prevPeak = peak
	}

	// Restore the steady sources so Final.HeatOut reflects real flux.
	copy(sv.q, sv.baseQ)
	for i := range sv.capOverDt {
		sv.capOverDt[i] = 0
	}
	res.Final = sv.field(steps)
	res.Final.recoveries = recoveries
	return res, nil
}

// TimeToFraction scans a transient trajectory for the first time the
// peak temperature crosses frac of the way from start to the given
// steady peak; it returns -1 if never reached. Useful for extracting
// thermal time constants (frac = 1 - 1/e = 0.632).
func (r *TransientResult) TimeToFraction(startC, steadyPeakC, frac float64) float64 {
	target := startC + frac*(steadyPeakC-startC)
	for i, p := range r.PeakC {
		if p >= target {
			return r.Times[i]
		}
	}
	return -1
}
