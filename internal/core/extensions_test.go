package core

import (
	"context"
	"testing"

	"diestack/internal/memhier"
	"diestack/internal/trace"
	"diestack/internal/workload"
)

func TestMultiDieSweepShape(t *testing.T) {
	pts, err := RunMultiDieSweep(context.Background(), RunSpec{Grid: testGrid}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("points = %d, want 3", len(pts))
	}
	for i, p := range pts {
		if p.Dies != i+2 || p.CapacityMB != 64*(i+1) {
			t.Errorf("point %d metadata wrong: %+v", i, p)
		}
	}
	// Temperature rises with every extra die, but each 6.2 W DRAM die
	// costs only a few degrees — tall stacks remain coolable.
	for i := 1; i < len(pts); i++ {
		if pts[i].PeakC <= pts[i-1].PeakC {
			t.Errorf("peak did not rise from %d to %d dies", pts[i-1].Dies, pts[i].Dies)
		}
		if d := pts[i].PeakC - pts[i-1].PeakC; d > 6 {
			t.Errorf("die %d added %.1f degC, implausibly high", pts[i].Dies, d)
		}
	}
	if _, err := RunMultiDieSweep(context.Background(), RunSpec{Grid: testGrid}, 1); err == nil {
		t.Error("maxDies=1 accepted")
	}
}

func TestMultiDieHierarchyConfig(t *testing.T) {
	cfg, err := MultiDieHierarchyConfig(2)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.L2.SizeBytes != 128<<20 || cfg.DRAMArray.Banks != 32 {
		t.Fatalf("config = %d MB / %d banks", cfg.L2.SizeBytes>>20, cfg.DRAMArray.Banks)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := MultiDieHierarchyConfig(0); err == nil {
		t.Error("0 dies accepted")
	}
	if _, err := MultiDieHierarchyConfig(9); err == nil {
		t.Error("9 dies accepted")
	}
}

func TestMultiDieCapacityHelpsSvm(t *testing.T) {
	// svm's ~37 MB footprint keeps improving past 64 MB only
	// marginally; the point here is that the 128 MB two-die cache is
	// a working configuration end to end.
	if testing.Short() {
		t.Skip("reference-scale trace")
	}
	b, _ := workload.ByName("svm")
	recs := b.Generate(1, 1.0)

	cpma := func(dramDies int) float64 {
		cfg, err := MultiDieHierarchyConfig(dramDies)
		if err != nil {
			t.Fatal(err)
		}
		sim, err := memhier.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(context.Background(), trace.NewSliceStream(recs), memhier.RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return res.CPMA
	}
	c64 := cpma(1)
	c128 := cpma(2)
	if c128 > c64*1.05 {
		t.Errorf("128MB (%.3f) should not be slower than 64MB (%.3f)", c128, c64)
	}
}

func TestRunAutoFoldComparison(t *testing.T) {
	cmp, err := RunAutoFold(context.Background(), RunSpec{Grid: testGrid})
	if err != nil {
		t.Fatal(err)
	}
	// Both folds cut the critical wire far below planar.
	if cmp.AutoWire >= cmp.PlanarWire || cmp.HandWire >= cmp.PlanarWire {
		t.Errorf("folds did not shorten wire: planar %.4f hand %.4f auto %.4f",
			cmp.PlanarWire, cmp.HandWire, cmp.AutoWire)
	}
	// The automatic fold's thermals land in the hand fold's
	// neighbourhood (within ~12 degC) with a bounded density ratio.
	if d := cmp.Auto.PeakC - cmp.Hand.PeakC; d > 12 || d < -12 {
		t.Errorf("auto fold peak %.1f vs hand %.1f", cmp.Auto.PeakC, cmp.Hand.PeakC)
	}
	if cmp.Auto.DensityRatio > 1.6 {
		t.Errorf("auto fold density ratio %.2f", cmp.Auto.DensityRatio)
	}
	// Power carries the same 15% saving.
	if d := cmp.Auto.TotalPowerW - cmp.Hand.TotalPowerW; d > 0.5 || d < -0.5 {
		t.Errorf("auto fold power %.1f vs hand %.1f", cmp.Auto.TotalPowerW, cmp.Hand.TotalPowerW)
	}
}
