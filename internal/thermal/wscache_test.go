package thermal

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"diestack/internal/obs"
)

// wscacheStack builds a small deterministic planar stack for cache
// tests; every call returns an identical stack.
func wscacheStack(nx int) *Stack {
	pm := NewPowerMap(nx, nx)
	pm.FillRect(nx/4, nx/4, 3*nx/4, 3*nx/4, 40)
	return PlanarStack(0.01, 0.01, pm, StackOptions{Nx: nx, Ny: nx})
}

func TestWorkspaceCacheReuseIsBitIdentical(t *testing.T) {
	reg := obs.NewRegistry()
	c := NewWorkspaceCache(4)
	defer c.Close()

	fresh, err := Solve(context.Background(), wscacheStack(16), SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var fields []*Field
	for i := 0; i < 3; i++ {
		f, err := c.Solve(context.Background(), "planar/16", wscacheStack(16), SolveOptions{Obs: reg})
		if err != nil {
			t.Fatal(err)
		}
		fields = append(fields, f)
	}
	for i, f := range fields {
		if f.Peak() != fresh.Peak() {
			t.Errorf("solve %d peak %v differs from fresh solve %v", i, f.Peak(), fresh.Peak())
		}
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d, want 1", c.Len())
	}
	if got := reg.CounterValue("thermal_ws_reused"); got != 2 {
		t.Errorf("thermal_ws_reused = %d, want 2", got)
	}
}

func TestWorkspaceCacheServesBothMethodsFromOneEntry(t *testing.T) {
	c := NewWorkspaceCache(4)
	defer c.Close()
	for _, m := range []Method{MethodLineSOR, MethodMultigrid} {
		if _, err := c.Solve(context.Background(), "planar/16", wscacheStack(16), SolveOptions{Method: m}); err != nil {
			t.Fatalf("method %v: %v", m, err)
		}
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d, want 1 (method must not split the key)", c.Len())
	}
}

func TestWorkspaceCacheEvictsLRU(t *testing.T) {
	c := NewWorkspaceCache(2)
	defer c.Close()
	keys := []string{"a", "b", "c"}
	for _, k := range keys {
		if _, err := c.Solve(context.Background(), k, wscacheStack(16), SolveOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d, want 2 after eviction", c.Len())
	}
}

func TestWorkspaceCacheConcurrentSolves(t *testing.T) {
	c := NewWorkspaceCache(2)
	defer c.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		key := "even"
		if i%2 == 1 {
			key = "odd"
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := c.Solve(context.Background(), key, wscacheStack(16), SolveOptions{})
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestNilWorkspaceCacheSolves(t *testing.T) {
	var c *WorkspaceCache
	if _, err := c.Solve(context.Background(), "k", wscacheStack(16), SolveOptions{}); err != nil {
		t.Fatal(err)
	}
}

// pooledEntry returns the workspace cached under key.
func pooledEntry(t *testing.T, c *WorkspaceCache, key string) *Workspace {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entries[key]
	if e == nil || e.ws == nil {
		t.Fatalf("no cached workspace under %q", key)
	}
	return e.ws
}

// TestWorkspaceCacheDropsIterationBuffers: between solves a pooled
// workspace keeps its discretization and operators only — every
// iteration buffer of the solver and of the multigrid hierarchy is
// released when the solve returns.
func TestWorkspaceCacheDropsIterationBuffers(t *testing.T) {
	c := NewWorkspaceCache(4)
	defer c.Close()
	for _, m := range []Method{MethodLineSOR, MethodDefault} {
		if _, err := c.Solve(context.Background(), "planar/16", wscacheStack(16), SolveOptions{Method: m}); err != nil {
			t.Fatal(err)
		}
		w := pooledEntry(t, c, "planar/16")
		sv := w.sv
		if sv.baseQ != nil || sv.q != nil || sv.t != nil || sv.tOld != nil || sv.capOverDt != nil {
			t.Errorf("%v: solver kept iteration buffers after a pooled solve", m)
		}
		if sv.gv == nil || sv.gxr == nil || sv.gyu == nil || sv.cellCap == nil {
			t.Errorf("%v: solver lost its discretization", m)
		}
		if m == MethodLineSOR {
			continue
		}
		if w.mg == nil {
			t.Fatal("default solve built no multigrid hierarchy")
		}
		if w.mg.tPrev != nil {
			t.Error("hierarchy kept tPrev")
		}
		for l, lv := range w.mg.levels {
			if lv.t != nil || lv.q != nil || lv.r != nil || lv.cod != nil {
				t.Errorf("level %d kept iteration buffers", l)
			}
			if lv.diagStatic == nil || lv.gv == nil {
				t.Errorf("level %d lost its operator", l)
			}
		}
	}
}

// TestWorkspaceCacheReusedEntryMatchesFresh: a reused entry, whose
// buffers were dropped and reallocated, re-solves byte-identical to a
// fresh thermal.Solve on every method, while other keys solve
// concurrently.
func TestWorkspaceCacheReusedEntryMatchesFresh(t *testing.T) {
	methods := []Method{MethodDefault, MethodLineSOR, MethodMultigrid}
	grids := []int{12, 16}
	fresh := map[[2]int]*Field{}
	for mi, m := range methods {
		for _, g := range grids {
			f, err := Solve(context.Background(), wscacheStack(g), SolveOptions{Method: m})
			if err != nil {
				t.Fatal(err)
			}
			fresh[[2]int{mi, g}] = f
		}
	}
	c := NewWorkspaceCache(4)
	defer c.Close()
	var wg sync.WaitGroup
	errs := make(chan error, len(grids))
	for _, g := range grids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			key := fmt.Sprintf("planar/%d", g)
			// Two rounds over every method: the second round runs on
			// an entry whose buffers each earlier solve dropped.
			for round := 0; round < 2; round++ {
				for mi, m := range methods {
					f, err := c.Solve(context.Background(), key, wscacheStack(g), SolveOptions{Method: m})
					if err != nil {
						errs <- err
						return
					}
					if !equalFields(f, fresh[[2]int{mi, g}]) {
						errs <- fmt.Errorf("grid %d round %d %v: pooled solve differs from fresh", g, round, m)
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
