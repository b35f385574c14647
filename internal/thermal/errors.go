package thermal

import (
	"errors"
	"fmt"
)

// Sentinel errors for the solver's two failure modes. Both are wrapped
// by *ConvergenceError, which carries the quantitative diagnosis; match
// with errors.Is against these and errors.As against *ConvergenceError.
var (
	// ErrNotConverged reports that the sweep budget ran out before the
	// residual met tolerance. The partial field is still returned
	// alongside the error for diagnosis.
	ErrNotConverged = errors.New("thermal: solver did not converge")
	// ErrDiverged reports that the iteration blew up (NaN/Inf or
	// sustained residual growth) and every damped-relaxation recovery
	// attempt blew up too.
	ErrDiverged = errors.New("thermal: solver diverged")
)

// ConvergenceError is the typed error returned when a solve fails. It
// unwraps to ErrDiverged or ErrNotConverged depending on the mode.
type ConvergenceError struct {
	// Residual is the final relative energy imbalance
	// |heat out - power in| / power in (NaN/Inf when diverged).
	Residual float64
	// Sweeps is the number of alternating-direction cycles completed by
	// the final attempt.
	Sweeps int
	// Omega is the relaxation factor in effect when the attempt failed.
	Omega float64
	// Recoveries counts the damped-relaxation restarts that were tried.
	Recoveries int
	// Diverged distinguishes blow-up from a merely exhausted budget.
	Diverged bool
}

// Error implements the error interface.
func (e *ConvergenceError) Error() string {
	if e.Diverged {
		return fmt.Sprintf("thermal: solver diverged (residual %g, omega %g, %d recovery attempts)",
			e.Residual, e.Omega, e.Recoveries)
	}
	return fmt.Sprintf("thermal: solver did not converge after %d sweeps (residual %g, omega %g)",
		e.Sweeps, e.Residual, e.Omega)
}

// Unwrap maps the error onto its sentinel for errors.Is.
func (e *ConvergenceError) Unwrap() error {
	if e.Diverged {
		return ErrDiverged
	}
	return ErrNotConverged
}

// ErrBadMethod reports a SolveOptions.Method (or
// TransientOptions.Method) value outside the defined schedules. It is
// wrapped by *MethodError, which carries the offending value; match
// with errors.Is against this sentinel and errors.As against
// *MethodError. ParseMethod failures wrap it too.
var ErrBadMethod = errors.New("thermal: invalid Method")

// MethodError is the typed error returned for an unknown
// SolveOptions.Method or TransientOptions.Method.
type MethodError struct {
	// Requested is the rejected setting.
	Requested Method
}

// Error implements the error interface.
func (e *MethodError) Error() string {
	return fmt.Sprintf("thermal: unknown solve method %d (have %s and %s)",
		int(e.Requested), MethodLineSOR, MethodMultigrid)
}

// Unwrap maps the error onto its sentinel for errors.Is.
func (e *MethodError) Unwrap() error { return ErrBadMethod }

// dampForRetry maps a diverged attempt onto the next rung of the
// recovery ladder, method-aware: a diverged line-SOR attempt keeps the
// method and damps its own relaxation factor; a diverged (or stalled)
// multigrid attempt falls back to damped line-SOR, restarting from the
// caller's SOR default rather than from the multigrid smoother's
// factor — the smoother relaxation is not an SOR over-relaxation, so
// damping it would not pick a sensible SOR operating point.
func dampForRetry(m Method, omega, sorOmega float64) (Method, float64) {
	if m == MethodMultigrid {
		return MethodLineSOR, dampOmega(sorOmega)
	}
	return m, dampOmega(omega)
}

// dampOmega returns the next, more conservative relaxation factor for a
// divergence-recovery restart: halve the over-relaxation and cap at
// 1.5. Repeated damping approaches 1.0 (plain line Gauss-Seidel), which
// is unconditionally convergent for this diagonally dominant system.
func dampOmega(omega float64) float64 {
	next := 1 + (omega-1)/2
	if next > 1.5 {
		next = 1.5
	}
	if next < 1 {
		next = 1
	}
	return next
}
