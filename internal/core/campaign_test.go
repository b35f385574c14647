package core

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"diestack/internal/fault"
	"diestack/internal/floorplan"
	"diestack/internal/harness"
	"diestack/internal/thermal"
	"diestack/internal/workload"
)

func TestCampaignJobsNames(t *testing.T) {
	jobs, err := CampaignJobs(CampaignSpec{RunSpec: RunSpec{Scale: 0.05}, Benchmarks: []string{"gauss"}})
	if err != nil {
		t.Fatal(err)
	}
	// 4 replays + 4 memory thermal + 3 logic thermal.
	if len(jobs) != 11 {
		t.Fatalf("want 11 jobs, got %d", len(jobs))
	}
	seen := map[string]bool{}
	for _, j := range jobs {
		seen[j.Name] = true
	}
	for _, want := range []string{"fig5/gauss/4MB", "fig5/gauss/32MB", "fig8/thermal/64MB", "fig11/logic/planar"} {
		if !seen[want] {
			t.Errorf("missing job %s (have %v)", want, seen)
		}
	}
	if _, err := CampaignJobs(CampaignSpec{Benchmarks: []string{"nope"}}); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

// TestSupervisedCampaignAcceptance is the issue's acceptance scenario:
// a campaign containing a panicking job, a deadline-exceeded job, and
// a forcibly diverging solve must complete, record those three
// failures with their causes, and leave every healthy job's result
// identical to an unsupervised run.
func TestSupervisedCampaignAcceptance(t *testing.T) {
	const (
		seed  = 1
		scale = 0.05
		grid  = 12
	)
	spec := CampaignSpec{RunSpec: RunSpec{Seed: seed, Scale: scale, Grid: grid},
		Benchmarks: []string{"gauss"}, SkipThermal: true}
	jobs, err := CampaignJobs(spec)
	if err != nil {
		t.Fatal(err)
	}
	jobs = append(jobs,
		harness.Job{Name: "inject/panic", Run: func(context.Context) (any, error) {
			panic("injected crash")
		}},
		harness.Job{Name: "inject/deadline", Timeout: 20 * time.Millisecond,
			Run: func(ctx context.Context) (any, error) {
				<-ctx.Done() // a hung replay
				return nil, ctx.Err()
			}},
		harness.Job{Name: "inject/divergence", Run: func(ctx context.Context) (any, error) {
			// Omega=5 genuinely diverges; recovery disabled, so the
			// typed divergence error must surface in the manifest.
			fp := floorplan.Core2DuoPlanar()
			pm := fp.PowerMapCentered(0, grid, grid, thermal.DefaultPackageW, thermal.DefaultPackageH)
			stack := thermal.PlanarStack(fp.DieW, fp.DieH, pm, thermal.StackOptions{Nx: grid, Ny: grid})
			f, err := thermal.Solve(ctx, stack, thermal.SolveOptions{Omega: 5, MaxRecoveries: -1})
			if err != nil {
				return nil, err
			}
			return f.Peak(), nil
		}},
	)

	m, err := harness.Run(context.Background(), harness.Config{
		Workers: 4, Sleep: func(time.Duration) {},
	}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Jobs) != len(jobs) {
		t.Fatalf("manifest has %d entries for %d jobs", len(m.Jobs), len(jobs))
	}

	// The three injected failures are recorded with their causes.
	p, _ := m.Result("inject/panic")
	if p.Status != harness.StatusPanicked || !strings.Contains(p.Error, "injected crash") || p.Stack == "" {
		t.Fatalf("panic not recorded with cause and stack: %+v", p)
	}
	d, _ := m.Result("inject/deadline")
	if d.Status != harness.StatusTimeout {
		t.Fatalf("deadline job not recorded as timeout: %+v", d)
	}
	v, _ := m.Result("inject/divergence")
	if v.Status != harness.StatusFailed || !strings.Contains(v.Error, "diverged") {
		t.Fatalf("divergence not recorded with its typed cause: %+v", v)
	}

	// Every healthy job's value is identical to the unsupervised run.
	bench, _ := workload.ByName("gauss")
	for _, o := range MemoryOptions() {
		want, err := RunMemoryPerf(context.Background(), RunSpec{Seed: seed, Scale: scale}, o, bench, fault.Config{})
		if err != nil {
			t.Fatal(err)
		}
		name := "fig5/gauss/" + map[MemoryOption]string{
			Planar4MB: "4MB", Stacked12MB: "12MB", Stacked32MB: "32MB", Stacked64MB: "64MB",
		}[o]
		r, found := m.Result(name)
		if !found || r.Status != harness.StatusOK {
			t.Fatalf("%s: %+v", name, r)
		}
		got, ok := r.Value.(MemoryPerf)
		if !ok {
			t.Fatalf("%s value has type %T", name, r.Value)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: supervised result differs from unsupervised:\nsupervised:   %+v\nunsupervised: %+v",
				name, got, want)
		}
	}
}

// TestThermalErrorSurfacedThroughCore checks the satellite contract:
// a solver that cannot converge reaches the core caller as a typed,
// matchable error instead of a silently accepted partial field.
func TestThermalErrorSurfacedThroughCore(t *testing.T) {
	fp := floorplan.Core2DuoPlanar()
	pm := fp.PowerMapCentered(0, 8, 8, thermal.DefaultPackageW, thermal.DefaultPackageH)
	stack := thermal.PlanarStack(fp.DieW, fp.DieH, pm, thermal.StackOptions{Nx: 8, Ny: 8})
	_, err := thermal.Solve(context.Background(), stack, thermal.SolveOptions{MaxCycles: 1, Tolerance: 1e-300})
	if !errors.Is(err, thermal.ErrNotConverged) {
		t.Fatalf("want ErrNotConverged, got %v", err)
	}
	var ce *thermal.ConvergenceError
	if !errors.As(err, &ce) || ce.Sweeps != 1 {
		t.Fatalf("typed error should carry the sweep count: %v", err)
	}
}

func TestCampaignSpecWireRoundTrip(t *testing.T) {
	spec := CampaignSpec{RunSpec: RunSpec{Seed: 7, Scale: 0.05, Grid: 16, Method: thermal.MethodMultigrid},
		Benchmarks: []string{"gauss", "pcg"}, SkipThermal: true}
	raw, err := spec.EncodeWire()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeWireSpec(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, spec) {
		t.Fatalf("round trip mutated the spec:\nin:  %+v\nout: %+v", spec, got)
	}
	// Equal specs encode to equal bytes (the coordinator hashes them).
	raw2, err := spec.EncodeWire()
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != string(raw2) {
		t.Fatalf("encoding not canonical: %s vs %s", raw, raw2)
	}
	// Version skew fails loudly.
	if _, err := DecodeWireSpec([]byte(`{"seed":1,"lease_style":"new"}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
	if _, err := DecodeWireSpec([]byte(`{"seed":1,"parallelism":2}`)); err == nil {
		t.Fatal("removed parallelism field accepted")
	}
	if _, err := DecodeWireSpec([]byte(`{garbage`)); err == nil {
		t.Fatal("garbage accepted")
	}
	// Unknown solver methods are typed failures at both ends.
	if _, err := (CampaignSpec{RunSpec: RunSpec{Method: thermal.Method(9)}}).EncodeWire(); !errors.Is(err, thermal.ErrBadMethod) {
		t.Fatalf("EncodeWire err = %v, want ErrBadMethod", err)
	}
	if _, err := DecodeWireSpec([]byte(`{"seed":1,"method":"jacobi"}`)); !errors.Is(err, thermal.ErrBadMethod) {
		t.Fatalf("DecodeWireSpec err = %v, want ErrBadMethod", err)
	}
	// The default method stays off the wire, so default specs keep the
	// bytes and hash they had before multigrid became the default.
	raw3, err := (CampaignSpec{RunSpec: RunSpec{Seed: 1}}).EncodeWire()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(raw3), "method") {
		t.Fatalf("default method leaked onto the wire: %s", raw3)
	}
}

// TestCampaignRejectsBadMethod: an unknown method is validated up
// front, one typed failure for the whole campaign.
func TestCampaignRejectsBadMethod(t *testing.T) {
	_, err := CampaignJobs(CampaignSpec{RunSpec: RunSpec{Scale: 0.01, Method: thermal.Method(3)}})
	if !errors.Is(err, thermal.ErrBadMethod) {
		t.Fatalf("err = %v, want ErrBadMethod", err)
	}
	var me *thermal.MethodError
	if !errors.As(err, &me) || me.Requested != thermal.Method(3) {
		t.Fatalf("err = %#v, want *MethodError{3}", err)
	}
}
