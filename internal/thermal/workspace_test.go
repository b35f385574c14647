package thermal

import (
	"context"
	"math"
	"testing"
)

// testStack is a small planar stack that converges quickly.
func testStack(grid int) *Stack {
	pm := NewPowerMap(grid, grid).FillRect(grid/4, grid/4, 3*grid/4, 3*grid/4, 92)
	return PlanarStack(0.013, 0.011, pm, StackOptions{Nx: grid, Ny: grid})
}

// tallTestStack has more z cells than a single die provides: a
// four-die MultiDieStack.
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

// TestWorkspaceReuse: repeated solves on one workspace match fresh
// solves exactly, including after the stack's power maps are mutated
// in place (sources are re-rasterized per solve). The deprecated
// Parallelism fields are inert: any value, negative included, solves
// serially to the same field without error.
func TestWorkspaceReuse(t *testing.T) {
	stacks := map[string]*Stack{
		"planar": testStack(16),
		"tall":   tallTestStack(t, 16),
	}
	for name, s := range stacks {
		w, err := NewWorkspace(s)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := Solve(context.Background(), s, SolveOptions{Method: MethodLineSOR})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []int{0, 0, 8, -1} {
			f, err := w.Solve(context.Background(), SolveOptions{Method: MethodLineSOR, Parallelism: p})
			if err != nil {
				t.Fatalf("%s: workspace solve (Parallelism=%d): %v", name, p, err)
			}
			if d := fieldMaxDiff(fresh, f); d != 0 {
				t.Errorf("%s: workspace solve (Parallelism=%d) differs from fresh solve by %g", name, p, d)
			}
		}
	}

	s := stacks["planar"]
	w, err := NewWorkspace(s)
	if err != nil {
		t.Fatal(err)
	}
	// Returned fields own their data: the first result must survive
	// later solves on the same workspace.
	first, err := w.Solve(context.Background(), SolveOptions{Method: MethodLineSOR})
	if err != nil {
		t.Fatal(err)
	}
	peakBefore := first.Peak()

	// Mutating the power map in place is picked up by the next solve.
	for _, l := range s.Layers {
		if l.Power != nil {
			l.Power.Scale(1.5)
		}
	}
	hot, err := w.Solve(context.Background(), SolveOptions{Method: MethodLineSOR})
	if err != nil {
		t.Fatal(err)
	}
	freshHot, err := Solve(context.Background(), s, SolveOptions{Method: MethodLineSOR})
	if err != nil {
		t.Fatal(err)
	}
	if d := fieldMaxDiff(freshHot, hot); d != 0 {
		t.Errorf("workspace solve after power mutation differs from fresh solve by %g", d)
	}
	if hot.Peak() <= peakBefore {
		t.Errorf("peak did not rise after scaling power: %g -> %g", peakBefore, hot.Peak())
	}
	if first.Peak() != peakBefore {
		t.Errorf("earlier field mutated by workspace reuse: %g -> %g", peakBefore, first.Peak())
	}

	// A transient on the same workspace matches a fresh transient, at
	// any Parallelism setting.
	topt := TransientOptions{Dt: 0.5, Steps: 4}
	trFresh, err := SolveTransient(context.Background(), s, topt)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{0, 8, -1} {
		topt.Parallelism = p
		trW, err := w.SolveTransient(context.Background(), topt)
		if err != nil {
			t.Fatalf("workspace transient (Parallelism=%d): %v", p, err)
		}
		if d := fieldMaxDiff(trFresh.Final, trW.Final); d != 0 {
			t.Errorf("workspace transient (Parallelism=%d) differs from fresh transient by %g", p, d)
		}
	}
}
