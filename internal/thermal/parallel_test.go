package thermal

import (
	"context"
	"errors"
	"math"
	"testing"
)

// testStack is a small planar stack that converges quickly.
func testStack(grid int) *Stack {
	pm := NewPowerMap(grid, grid).FillRect(grid/4, grid/4, 3*grid/4, 3*grid/4, 92)
	return PlanarStack(0.013, 0.011, pm, StackOptions{Nx: grid, Ny: grid})
}

// tallTestStack exercises the z-partitioned pipelines with more z
// cells than a single die provides: a four-die MultiDieStack.
func tallTestStack(t *testing.T, grid int) *Stack {
	t.Helper()
	dies := make([]DieSpec, 4)
	for i := range dies {
		pm := NewPowerMap(grid, grid).FillUniform(20)
		dies[i] = LogicDie(pm)
	}
	s, err := MultiDieStack(0.013, 0.011, dies, StackOptions{Nx: grid, Ny: grid})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// fieldMaxDiff returns the largest absolute per-cell difference.
func fieldMaxDiff(a, b *Field) float64 {
	if len(a.t) != len(b.t) {
		return math.Inf(1)
	}
	worst := 0.0
	for i := range a.t {
		if d := math.Abs(a.t[i] - b.t[i]); d > worst {
			worst = d
		}
	}
	return worst
}

// TestParallelMatchesSerial is the tentpole equivalence guarantee:
// the pipelined parallel solver agrees with the serial solver within
// 1e-9 at every tested worker count, on both a planar stack and a
// tall multi-die stack. Run under -race this also proves the pipeline
// handoffs are properly synchronized.
func TestParallelMatchesSerial(t *testing.T) {
	stacks := map[string]*Stack{
		"planar": testStack(24),
		"tall":   tallTestStack(t, 16),
	}
	for name, s := range stacks {
		serial, err := Solve(context.Background(), s, SolveOptions{Method: MethodLineSOR})
		if err != nil {
			t.Fatalf("%s: serial solve: %v", name, err)
		}
		for _, p := range []int{1, 2, 8} {
			f, err := Solve(context.Background(), s, SolveOptions{Method: MethodLineSOR, Parallelism: p})
			if err != nil {
				t.Fatalf("%s: parallel solve (P=%d): %v", name, p, err)
			}
			if d := fieldMaxDiff(serial, f); d > 1e-9 {
				t.Errorf("%s: parallel P=%d differs from serial by %g (> 1e-9)", name, p, d)
			}
			if f.Sweeps() != serial.Sweeps() {
				t.Errorf("%s: parallel P=%d took %d cycles, serial %d", name, p, f.Sweeps(), serial.Sweeps())
			}
		}
	}
}

// TestParallelDeterminism: two independent parallel solves are
// bit-identical — the static partition and fixed-order reduction leave
// no scheduling dependence in the result.
func TestParallelDeterminism(t *testing.T) {
	s := testStack(24)
	var fields []*Field
	for run := 0; run < 2; run++ {
		f, err := Solve(context.Background(), s, SolveOptions{Method: MethodLineSOR, Parallelism: 8})
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		fields = append(fields, f)
	}
	for i := range fields[0].t {
		a := math.Float64bits(fields[0].t[i])
		b := math.Float64bits(fields[1].t[i])
		if a != b {
			t.Fatalf("cell %d not bit-identical across runs: %x vs %x", i, a, b)
		}
	}
	if fields[0].Sweeps() != fields[1].Sweeps() {
		t.Fatalf("cycle counts differ across runs: %d vs %d", fields[0].Sweeps(), fields[1].Sweeps())
	}
}

// TestTransientParallelMatchesSerial extends the equivalence guarantee
// to the implicit-Euler path: per-step peaks and the final field agree
// within 1e-9.
func TestTransientParallelMatchesSerial(t *testing.T) {
	s := testStack(16)
	opt := TransientOptions{Dt: 0.5, Steps: 8}
	serial, err := SolveTransient(context.Background(), s, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 2, 8} {
		opt := opt
		opt.Parallelism = p
		tr, err := SolveTransient(context.Background(), s, opt)
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		if d := fieldMaxDiff(serial.Final, tr.Final); d > 1e-9 {
			t.Errorf("P=%d: final field differs from serial by %g", p, d)
		}
		for i := range serial.PeakC {
			if d := math.Abs(serial.PeakC[i] - tr.PeakC[i]); d > 1e-9 {
				t.Errorf("P=%d: step %d peak differs by %g", p, i, d)
			}
		}
	}
}

// TestParallelismValidation covers the misconfiguration guard: the cap
// derives from GOMAXPROCS with a floor of 8, zero means serial, and
// negatives or over-cap values fail with the typed error.
func TestParallelismValidation(t *testing.T) {
	if MaxParallelism() < 8 {
		t.Fatalf("MaxParallelism() = %d, want >= 8", MaxParallelism())
	}
	s := testStack(8)
	for _, p := range []int{-1, -100, MaxParallelism() + 1} {
		_, err := Solve(context.Background(), s, SolveOptions{Method: MethodLineSOR, Parallelism: p})
		if !errors.Is(err, ErrBadParallelism) {
			t.Errorf("Parallelism=%d: got %v, want ErrBadParallelism", p, err)
		}
		var pe *ParallelismError
		if !errors.As(err, &pe) {
			t.Errorf("Parallelism=%d: error %v is not a *ParallelismError", p, err)
		} else if pe.Requested != p {
			t.Errorf("Parallelism=%d: error reports Requested=%d", p, pe.Requested)
		}
		_, terr := SolveTransient(context.Background(), s, TransientOptions{Dt: 1, Steps: 1, Parallelism: p})
		if !errors.Is(terr, ErrBadParallelism) {
			t.Errorf("transient Parallelism=%d: got %v, want ErrBadParallelism", p, terr)
		}
	}
	if _, err := Solve(context.Background(), s, SolveOptions{Method: MethodLineSOR, Parallelism: 0}); err != nil {
		t.Errorf("Parallelism=0 (serial default): %v", err)
	}
}

// TestWorkspaceReuse: repeated solves on one workspace match fresh
// solves, including after the stack's power maps are mutated in place
// (sources are re-rasterized per solve) and across pool resizes.
func TestWorkspaceReuse(t *testing.T) {
	grid := 16
	pm := NewPowerMap(grid, grid).FillRect(grid/4, grid/4, 3*grid/4, 3*grid/4, 92)
	s := PlanarStack(0.013, 0.011, pm, StackOptions{Nx: grid, Ny: grid})

	w, err := NewWorkspace(s)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	fresh, err := Solve(context.Background(), s, SolveOptions{Method: MethodLineSOR})
	if err != nil {
		t.Fatal(err)
	}
	// Two serial solves, then pool sizes 2 and 8, then serial again:
	// every one must match the fresh single-use solve exactly.
	for _, p := range []int{0, 0, 2, 8, 0} {
		f, err := w.Solve(context.Background(), SolveOptions{Method: MethodLineSOR, Parallelism: p})
		if err != nil {
			t.Fatalf("workspace solve (P=%d): %v", p, err)
		}
		if d := fieldMaxDiff(fresh, f); d > 1e-9 {
			t.Errorf("workspace solve (P=%d) differs from fresh solve by %g", p, d)
		}
	}

	// Returned fields own their data: the first result must survive
	// later solves on the same workspace.
	first, err := w.Solve(context.Background(), SolveOptions{Method: MethodLineSOR})
	if err != nil {
		t.Fatal(err)
	}
	peakBefore := first.Peak()

	// Mutating the power map in place is picked up by the next solve.
	pm.Scale(1.5)
	hot, err := w.Solve(context.Background(), SolveOptions{Method: MethodLineSOR})
	if err != nil {
		t.Fatal(err)
	}
	freshHot, err := Solve(context.Background(), s, SolveOptions{Method: MethodLineSOR})
	if err != nil {
		t.Fatal(err)
	}
	if d := fieldMaxDiff(freshHot, hot); d > 1e-9 {
		t.Errorf("workspace solve after power mutation differs from fresh solve by %g", d)
	}
	if hot.Peak() <= peakBefore {
		t.Errorf("peak did not rise after scaling power: %g -> %g", peakBefore, hot.Peak())
	}
	if first.Peak() != peakBefore {
		t.Errorf("earlier field mutated by workspace reuse: %g -> %g", peakBefore, first.Peak())
	}

	// A transient on the same workspace matches a fresh transient.
	topt := TransientOptions{Dt: 0.5, Steps: 4}
	trW, err := w.SolveTransient(context.Background(), topt)
	if err != nil {
		t.Fatal(err)
	}
	trFresh, err := SolveTransient(context.Background(), s, topt)
	if err != nil {
		t.Fatal(err)
	}
	if d := fieldMaxDiff(trFresh.Final, trW.Final); d > 1e-9 {
		t.Errorf("workspace transient differs from fresh transient by %g", d)
	}
}
