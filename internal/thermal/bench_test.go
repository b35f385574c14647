package thermal

import (
	"context"
	"testing"
)

func benchStack(grid int) *Stack {
	pm := NewPowerMap(grid, grid).FillRect(grid/4, grid/4, 3*grid/4, 3*grid/4, 92)
	return PlanarStack(0.013, 0.011, pm, StackOptions{Nx: grid, Ny: grid})
}

func BenchmarkSolve32(b *testing.B) {
	s := benchStack(32)
	for i := 0; i < b.N; i++ {
		if _, err := Solve(context.Background(), s, SolveOptions{Method: MethodLineSOR}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolve64(b *testing.B) {
	s := benchStack(64)
	for i := 0; i < b.N; i++ {
		if _, err := Solve(context.Background(), s, SolveOptions{Method: MethodLineSOR}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolve64Parallel8 is the headline parallel benchmark: the
// same solve as BenchmarkSolve64 on an 8-worker pipelined pool, with
// bit-identical output. Speedup requires cores; on a single-CPU host
// the workers time-share and this measures pipeline overhead instead.
func BenchmarkSolve64Parallel8(b *testing.B) {
	s := benchStack(64)
	w, err := NewWorkspace(s)
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.Solve(context.Background(), SolveOptions{Method: MethodLineSOR, Parallelism: 8}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolve32Multigrid solves the 32-class stack on the multigrid
// schedule, hierarchy build included (cold-solve cost).
func BenchmarkSolve32Multigrid(b *testing.B) {
	s := benchStack(32)
	for i := 0; i < b.N; i++ {
		if _, err := Solve(context.Background(), s, SolveOptions{Method: MethodMultigrid}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolve64Multigrid is the headline algorithmic benchmark: the
// same solve as BenchmarkSolve64, same default tolerance, single core,
// on V-cycles instead of alternating-direction line-SOR.
func BenchmarkSolve64Multigrid(b *testing.B) {
	s := benchStack(64)
	for i := 0; i < b.N; i++ {
		if _, err := Solve(context.Background(), s, SolveOptions{Method: MethodMultigrid}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWorkspaceResolve32 measures a re-solve on a kept Workspace
// (the retry/DTM/sweep path): discretization is amortized away, only
// iteration remains.
func BenchmarkWorkspaceResolve32(b *testing.B) {
	s := benchStack(32)
	w, err := NewWorkspace(s)
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.Solve(context.Background(), SolveOptions{Method: MethodLineSOR}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWorkspaceResolve64Multigrid measures the multigrid re-solve
// path on a kept Workspace: the hierarchy is already allocated, so
// this is the pure allocation-free V-cycle iteration cost — the shape
// of every transient step and DTM sample.
func BenchmarkWorkspaceResolve64Multigrid(b *testing.B) {
	s := benchStack(64)
	w, err := NewWorkspace(s)
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	if _, err := w.Solve(context.Background(), SolveOptions{Method: MethodMultigrid}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.Solve(context.Background(), SolveOptions{Method: MethodMultigrid}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTransientStep(b *testing.B) {
	s := benchStack(32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SolveTransient(context.Background(), s, TransientOptions{Dt: 1, Steps: 10}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(10, "steps/op")
}
