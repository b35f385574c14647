package thermal

import (
	"fmt"
	"strings"
)

// Method selects the iteration schedule a steady or transient solve
// runs. The two schedules share everything that defines the answer —
// the discretization, the conductances, the power rasterization, the
// boundary conditions, and the convergence test (global energy
// imbalance under SolveOptions.Tolerance plus per-cycle stagnation) —
// so their solutions are interchangeable within tolerance even though
// they are not bit-identical to each other.
type Method int

const (
	// MethodDefault is the zero value: each solve kind picks its own
	// schedule. Steady solves (SolveOptions) run MethodMultigrid;
	// transient solves (TransientOptions) run MethodLineSOR, whose
	// fixed inner-cycle budget per implicit step the DTM results are
	// pinned against. It is the empty string on the wire and in the
	// -solver flag.
	MethodDefault Method = iota
	// MethodLineSOR is the alternating-direction line-SOR schedule:
	// tridiagonal solves along z, x, and y lines, iterated to
	// convergence. It is the bit-compatibility baseline with releases
	// before multigrid became the steady default, but needs hundreds to
	// thousands of cycles on fine grids.
	MethodLineSOR
	// MethodMultigrid is the geometric multigrid schedule: V-cycles
	// over a lateral coarsening hierarchy with red-black z-line
	// smoothing. It converges in tens of cycles where line-SOR needs
	// hundreds; the result meets the same tolerance but is not
	// bit-identical to line-SOR. The schedule is deterministic (fixed
	// sweep order, no map iteration): the same stack and options
	// reproduce the same field byte for byte. A multigrid attempt that
	// diverges or stalls falls back to damped line-SOR automatically
	// (see SolveOptions.MaxRecoveries).
	MethodMultigrid
)

// String names the method the way the -solver CLI flag spells it
// ("default" for MethodDefault, which the flag also accepts as "").
func (m Method) String() string {
	switch m {
	case MethodDefault:
		return "default"
	case MethodLineSOR:
		return "line-sor"
	case MethodMultigrid:
		return "multigrid"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// Validate rejects unknown Method values with a *MethodError wrapping
// ErrBadMethod, so a typo'd or stale configuration fails loudly instead
// of silently running the default schedule.
func (m Method) Validate() error {
	switch m {
	case MethodDefault, MethodLineSOR, MethodMultigrid:
		return nil
	}
	return &MethodError{Requested: m}
}

// ParseMethod maps a -solver CLI value onto a Method. Accepted
// spellings: "" and "default" for MethodDefault; "sor", "line-sor",
// "linesor" for MethodLineSOR; "multigrid", "mg" for MethodMultigrid.
// Anything else fails with an error wrapping ErrBadMethod.
func ParseMethod(s string) (Method, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "default":
		return MethodDefault, nil
	case "sor", "line-sor", "linesor":
		return MethodLineSOR, nil
	case "multigrid", "mg":
		return MethodMultigrid, nil
	}
	return 0, fmt.Errorf("thermal: unknown solver method %q (have sor, multigrid): %w", s, ErrBadMethod)
}
