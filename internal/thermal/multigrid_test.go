package thermal

import (
	"context"
	"errors"
	"math"
	"runtime"
	"testing"
)

// table5Stack is the Figure-1/Table-5 face-to-face pair: a powered
// logic die bonded to a DRAM die, the configuration the cross-method
// contract is judged on.
func table5Stack(grid int) *Stack {
	cpu := NewPowerMap(grid, grid).FillRect(grid/4, grid/4, 3*grid/4, 3*grid/4, 60)
	mem := NewPowerMap(grid, grid).FillUniform(3)
	return ThreeDStack(0.012, 0.012, LogicDie(cpu), DRAMDie(mem), StackOptions{Nx: grid, Ny: grid})
}

// TestMultigridAgreesWithLineSOR is the cross-method contract: both
// schedules solve the same discretization to the same tolerance, so
// their fields must agree pointwise within the tolerance-implied
// bound. Not bit-identity — interchangeability.
func TestMultigridAgreesWithLineSOR(t *testing.T) {
	s := table5Stack(32)
	fSOR, err := Solve(context.Background(), s, SolveOptions{Method: MethodLineSOR})
	if err != nil {
		t.Fatal(err)
	}
	fMG, err := Solve(context.Background(), s, SolveOptions{Method: MethodMultigrid})
	if err != nil {
		t.Fatal(err)
	}
	if fMG.Recoveries() != 0 {
		t.Fatalf("multigrid needed %d recoveries on a healthy stack", fMG.Recoveries())
	}
	maxDiff := 0.0
	for i := range fSOR.t {
		if d := math.Abs(fSOR.t[i] - fMG.t[i]); d > maxDiff {
			maxDiff = d
		}
	}
	// Both fields pass the 1e-4 K stagnation gate and the 1e-3 energy
	// tolerance; for this stack that pins the pointwise disagreement
	// well under a quarter kelvin on a ~40 K rise.
	if maxDiff > 0.25 {
		t.Fatalf("methods disagree by %.4f K (SOR peak %.3f, MG peak %.3f)",
			maxDiff, fSOR.Peak(), fMG.Peak())
	}
	t.Logf("max |dT| = %.5f K; cycles SOR=%d MG=%d", maxDiff, fSOR.Sweeps(), fMG.Sweeps())
	if fMG.Sweeps() >= fSOR.Sweeps() {
		t.Errorf("multigrid took %d cycles, line-SOR %d — no convergence win", fMG.Sweeps(), fSOR.Sweeps())
	}
}

// TestMultigridDeterministic checks the run-to-run reproducibility
// claim: the same stack and options produce a byte-identical field,
// both across fresh Workspaces and across re-solves on a reused one.
func TestMultigridDeterministic(t *testing.T) {
	solve := func() (*Workspace, *Field) {
		w, err := NewWorkspace(benchStack(32))
		if err != nil {
			t.Fatal(err)
		}
		f, err := w.Solve(context.Background(), SolveOptions{Method: MethodMultigrid})
		if err != nil {
			t.Fatal(err)
		}
		return w, f
	}
	w1, f1 := solve()
	defer w1.Close()
	w2, f2 := solve()
	defer w2.Close()
	for i := range f1.t {
		if f1.t[i] != f2.t[i] {
			t.Fatalf("fresh workspaces differ at cell %d: %v vs %v", i, f1.t[i], f2.t[i])
		}
	}
	f3, err := w1.Solve(context.Background(), SolveOptions{Method: MethodMultigrid})
	if err != nil {
		t.Fatal(err)
	}
	for i := range f1.t {
		if f1.t[i] != f3.t[i] {
			t.Fatalf("re-solve differs at cell %d: %v vs %v", i, f1.t[i], f3.t[i])
		}
	}
}

// TestMultigridFallbackRecovers injects a divergence (smoother
// relaxation at 2.5, outside SOR's (0,2) stability interval) and
// requires the method-aware ladder to land on damped line-SOR and
// return a converged field. Parallelism 2 keeps the fallback's worker
// pool in play under -race.
func TestMultigridFallbackRecovers(t *testing.T) {
	w, err := NewWorkspace(benchStack(32))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	f, err := w.Solve(context.Background(), SolveOptions{
		Method:      MethodMultigrid,
		Omega:       2.5,
		Parallelism: 2,
	})
	if err != nil {
		t.Fatalf("fallback did not recover: %v", err)
	}
	if f.Recoveries() == 0 {
		t.Fatal("omega 2.5 should have tripped the divergence watchdog")
	}
	if res := math.Abs(f.HeatOut()-92) / 92; res > 1e-3 {
		t.Fatalf("recovered field violates energy tolerance: residual %g", res)
	}
	t.Logf("recovered after %d restart(s), peak %.2f C", f.Recoveries(), f.Peak())
}

// TestMultigridFallbackExhausts checks the failure edge: with recovery
// disabled, a diverging multigrid attempt must fail with ErrDiverged
// instead of silently switching methods.
func TestMultigridFallbackExhausts(t *testing.T) {
	_, err := Solve(context.Background(), benchStack(32), SolveOptions{
		Method:        MethodMultigrid,
		Omega:         2.5,
		MaxRecoveries: -1,
	})
	if !errors.Is(err, ErrDiverged) {
		t.Fatalf("err = %v, want ErrDiverged", err)
	}
	var ce *ConvergenceError
	if !errors.As(err, &ce) || !ce.Diverged {
		t.Fatalf("err = %#v, want diverged *ConvergenceError", err)
	}
}

// TestMethodValidation covers the typed-error contract for unknown
// Method values, mirroring the Parallelism validation.
func TestMethodValidation(t *testing.T) {
	bad := Method(99)
	if err := bad.Validate(); !errors.Is(err, ErrBadMethod) {
		t.Fatalf("Validate err = %v, want ErrBadMethod", err)
	}
	_, err := Solve(context.Background(), oneDStack(10), SolveOptions{Method: bad})
	if !errors.Is(err, ErrBadMethod) {
		t.Fatalf("Solve err = %v, want ErrBadMethod", err)
	}
	var me *MethodError
	if !errors.As(err, &me) || me.Requested != bad {
		t.Fatalf("Solve err = %#v, want *MethodError{99}", err)
	}
	_, err = SolveTransient(context.Background(), oneDStack(10), TransientOptions{Method: bad, Dt: 1, Steps: 1})
	if !errors.As(err, &me) {
		t.Fatalf("SolveTransient err = %v, want *MethodError", err)
	}

	for _, tc := range []struct {
		in   string
		want Method
		ok   bool
	}{
		{"", MethodDefault, true},
		{"default", MethodDefault, true},
		{"sor", MethodLineSOR, true},
		{"line-sor", MethodLineSOR, true},
		{"MULTIGRID", MethodMultigrid, true},
		{" mg ", MethodMultigrid, true},
		{"jacobi", 0, false},
	} {
		m, err := ParseMethod(tc.in)
		if tc.ok && (err != nil || m != tc.want) {
			t.Errorf("ParseMethod(%q) = %v, %v; want %v", tc.in, m, err, tc.want)
		}
		if !tc.ok && !errors.Is(err, ErrBadMethod) {
			t.Errorf("ParseMethod(%q) err = %v, want ErrBadMethod", tc.in, err)
		}
	}
	if MethodLineSOR.String() != "line-sor" || MethodMultigrid.String() != "multigrid" {
		t.Errorf("String() = %q, %q", MethodLineSOR, MethodMultigrid)
	}
}

// TestDefaultMethodResolution pins what the zero Method means per
// solve kind: multigrid for steady solves, line-SOR for transients.
// Transients stay on line-SOR because the default 10-cycle inner
// budget leaves each implicit step short of convergence, and the
// published DTM peaks are pinned to line-SOR's truncation; a default
// multigrid transient moves them (see DESIGN.md).
func TestDefaultMethodResolution(t *testing.T) {
	if got := (SolveOptions{}).withDefaults(); got.Method != MethodMultigrid || got.Omega != 1.0 {
		t.Errorf("default SolveOptions -> %v omega %v, want multigrid omega 1", got.Method, got.Omega)
	}
	if got := (TransientOptions{}).withDefaults(); got.Method != MethodLineSOR || got.Omega != defaultTransientOmega {
		t.Errorf("default TransientOptions -> %v omega %v, want line-sor omega %v",
			got.Method, got.Omega, defaultTransientOmega)
	}
	// Explicit choices are honored on both kinds.
	if got := (SolveOptions{Method: MethodLineSOR}).withDefaults(); got.Method != MethodLineSOR || got.Omega != defaultSteadyOmega {
		t.Errorf("explicit line-SOR steady -> %v omega %v", got.Method, got.Omega)
	}
	if got := (TransientOptions{Method: MethodMultigrid}).withDefaults(); got.Method != MethodMultigrid {
		t.Errorf("explicit multigrid transient -> %v", got.Method)
	}

	// End to end: a default steady solve is the multigrid solve, and a
	// default transient is the line-SOR transient, bit for bit.
	s := table5Stack(16)
	def, err := Solve(context.Background(), s, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mg, err := Solve(context.Background(), s, SolveOptions{Method: MethodMultigrid})
	if err != nil {
		t.Fatal(err)
	}
	if !equalFields(def, mg) {
		t.Error("default steady solve differs from the multigrid solve")
	}
	topt := TransientOptions{Dt: 0.5, Steps: 4}
	tdef, err := SolveTransient(context.Background(), s, topt)
	if err != nil {
		t.Fatal(err)
	}
	topt.Method = MethodLineSOR
	tsor, err := SolveTransient(context.Background(), s, topt)
	if err != nil {
		t.Fatal(err)
	}
	if !equalFields(tdef.Final, tsor.Final) {
		t.Error("default transient differs from the line-SOR transient")
	}
}

// equalFields reports whether two fields are bit-identical.
func equalFields(a, b *Field) bool {
	if len(a.t) != len(b.t) {
		return false
	}
	for i := range a.t {
		if math.Float64bits(a.t[i]) != math.Float64bits(b.t[i]) {
			return false
		}
	}
	return true
}

// TestMultigridVCycleAllocs pins the steady-state hot path: once the
// Workspace's hierarchy is warm, a V-cycle must not allocate (the
// one-time hierarchy build is exempt by design).
func TestMultigridVCycleAllocs(t *testing.T) {
	w, err := NewWorkspace(benchStack(32))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, err := w.Solve(context.Background(), SolveOptions{Method: MethodMultigrid}); err != nil {
		t.Fatal(err)
	}
	h := w.mg
	if h == nil {
		t.Fatal("multigrid solve left no hierarchy on the workspace")
	}
	if allocs := testing.AllocsPerRun(10, func() {
		copy(h.tPrev, w.sv.t)
		h.vcycle(1.0)
	}); allocs != 0 {
		t.Fatalf("V-cycle allocates %v objects per run, want 0", allocs)
	}
}

// TestWorkspaceWarmResolveAllocs pins the warm re-solve on a directly
// held Workspace: it keeps its iteration buffers (only a
// WorkspaceCache drops them), so a re-solve allocates the returned
// Field's temperature copy and nothing else of the grid's size, on
// either method.
func TestWorkspaceWarmResolveAllocs(t *testing.T) {
	for _, m := range []Method{MethodLineSOR, MethodMultigrid} {
		w, err := NewWorkspace(benchStack(16))
		if err != nil {
			t.Fatal(err)
		}
		opt := SolveOptions{Method: m}
		if _, err := w.Solve(context.Background(), opt); err != nil {
			t.Fatal(err)
		}
		const runs = 4
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if _, err := w.Solve(context.Background(), opt); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		perSolve := (after.TotalAlloc - before.TotalAlloc) / runs
		fieldBytes := uint64(8 * len(w.sv.t))
		if perSolve >= 2*fieldBytes {
			t.Errorf("%v: warm re-solve allocates %d bytes, want under %d (one Field copy is %d)",
				m, perSolve, 2*fieldBytes, fieldBytes)
		}
		w.Close()
	}
}

// TestMultigridTransient runs the implicit-Euler integration on the
// multigrid schedule and checks it against line-SOR stepping. Both
// runs get an inner-cycle budget large enough to hit the 1e-6 break
// every step, so each compares the same converged implicit solution
// (at the default budget of 10 the methods differ by their leftover
// truncation — multigrid converges the step, line-SOR does not quite).
func TestMultigridTransient(t *testing.T) {
	s := table5Stack(24)
	opt := TransientOptions{Dt: 0.5, Steps: 8, InnerCycles: 400}
	sor, err := SolveTransient(context.Background(), s, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Method = MethodMultigrid
	mg, err := SolveTransient(context.Background(), s, opt)
	if err != nil {
		t.Fatal(err)
	}
	if mg.Recoveries != 0 {
		t.Fatalf("multigrid transient needed %d recoveries", mg.Recoveries)
	}
	for i := range sor.PeakC {
		if d := math.Abs(sor.PeakC[i] - mg.PeakC[i]); d > 0.05 {
			t.Fatalf("step %d peaks disagree by %.4f K (SOR %.3f, MG %.3f)",
				i, d, sor.PeakC[i], mg.PeakC[i])
		}
	}
}

// TestMultigridTransientRecovers injects a NaN through the PowerScale
// hook and requires the transient recovery ladder to restart on damped
// line-SOR and finish.
func TestMultigridTransientRecovers(t *testing.T) {
	first := true
	res, err := SolveTransient(context.Background(), oneDStack(40), TransientOptions{
		Method: MethodMultigrid,
		Dt:     0.5, Steps: 4,
		PowerScale: func(tm, peak float64) float64 {
			if first {
				first = false
				return math.NaN()
			}
			return 1
		},
	})
	if err != nil {
		t.Fatalf("transient fallback did not recover: %v", err)
	}
	if res.Recoveries == 0 {
		t.Fatal("NaN injection should have forced a recovery restart")
	}
	if !isFinite(res.Final.Peak()) {
		t.Fatal("recovered integration returned a non-finite field")
	}
}
