package core

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"diestack/internal/dtm"
	"diestack/internal/fault"
	"diestack/internal/thermal"
	"diestack/internal/workload"
)

// Coarse grid: the DTM loop solves the stack hundreds of times.
const dtmGrid = 16

func TestDesignFor(t *testing.T) {
	p := DesignFor(LogicPlanar)
	if p.PowerFactor != 1 || p.PerfGainPct != 0 {
		t.Fatalf("planar design %+v", p)
	}
	d := DesignFor(Logic3D)
	if d.PowerFactor != 0.85 || d.PerfGainPct != 15 {
		t.Fatalf("3D design %+v", d)
	}
	w := DesignFor(Logic3DWorst)
	if w.PowerFactor != 1 {
		t.Fatalf("worst-case fold must not save power: %+v", w)
	}
}

func TestManagedLogicHoldsTmax(t *testing.T) {
	// Tmax between the 3D stack's cold-start overshoot (~82C after the
	// first 0.25 s sample) and its unmanaged steady peak (~99C), so the
	// controller must intervene and must succeed.
	const tmax = 90.0
	res, err := RunManagedLogicThermal(context.Background(), RunSpec{Grid: dtmGrid}, Logic3D,
		dtm.Config{TmaxC: tmax, HysteresisC: 3}, fault.Config{},
		thermal.TransientOptions{Dt: 0.25, Steps: 200})
	if err != nil {
		t.Fatal(err)
	}
	if res.UnmanagedPeakC <= tmax {
		t.Fatalf("unmanaged peak %.2f below Tmax — scenario proves nothing", res.UnmanagedPeakC)
	}
	if res.DTM.ManagedPeakC > tmax {
		t.Fatalf("managed peak %.2f above Tmax %.0f", res.DTM.ManagedPeakC, tmax)
	}
	if res.DTM.Stats.SamplesThrottled == 0 {
		t.Fatal("Tmax held without throttling yet unmanaged exceeds it")
	}
	if res.DTM.PerfPct >= 115 {
		t.Fatalf("PerfPct %.1f reports the guarantee was free", res.DTM.PerfPct)
	}
	if res.DTM.FinalScale >= 1 {
		t.Fatalf("final power scale %.3f reports no throttle", res.DTM.FinalScale)
	}
	if res.Faults != (fault.Stats{}) {
		t.Fatalf("fault counters without injection: %+v", res.Faults)
	}
}

func TestImpossibleTmaxEngagesFallback(t *testing.T) {
	// Tmax=45 with 40C ambient: only parking the stacked die can hold
	// it. The fallback fraction is defaulted from the floorplan.
	res, err := RunManagedLogicThermal(context.Background(), RunSpec{Grid: dtmGrid}, Logic3D,
		dtm.Config{TmaxC: 45, RunawaySamples: 4}, fault.Config{},
		thermal.TransientOptions{Dt: 0.5, Steps: 60})
	if err != nil {
		t.Fatal(err)
	}
	if !res.DTM.Fallback {
		t.Fatal("stacked-die fallback never engaged")
	}
	// 2D-equivalent mode at the frequency floor: well below baseline.
	if res.DTM.PerfPct >= 100 {
		t.Fatalf("fallback PerfPct %.1f at or above baseline", res.DTM.PerfPct)
	}
}

func TestPlanarRunawaySurfacesSentinel(t *testing.T) {
	// A planar die has no stacked die to park (Dies==1, no fallback
	// defaulting): an unholdable Tmax must surface ErrThermalRunaway,
	// with the partial trajectory still returned.
	res, err := RunManagedLogicThermal(context.Background(), RunSpec{Grid: dtmGrid}, LogicPlanar,
		dtm.Config{TmaxC: 41, RunawaySamples: 4}, fault.Config{},
		thermal.TransientOptions{Dt: 0.5, Steps: 40})
	if !errors.Is(err, dtm.ErrThermalRunaway) {
		t.Fatalf("want ErrThermalRunaway, got %v", err)
	}
	if res.DTM.Transient == nil {
		t.Fatal("runaway result missing the trajectory")
	}
}

func TestStuckSensorBlindsDTM(t *testing.T) {
	const steps = 100
	res, err := RunManagedLogicThermal(context.Background(), RunSpec{Grid: dtmGrid}, Logic3D,
		dtm.Config{TmaxC: 80},
		fault.Config{SensorStuckAt: true, SensorStuckAtC: 50},
		thermal.TransientOptions{Dt: 0.25, Steps: steps})
	if err != nil {
		t.Fatal(err)
	}
	st := res.DTM.Stats
	if st.SamplesThrottled != 0 {
		t.Fatalf("blinded controller throttled %d samples", st.SamplesThrottled)
	}
	if st.PeakSensedC != 50 {
		t.Fatalf("sensed peak %.2f, want the stuck 50", st.PeakSensedC)
	}
	if st.PeakTrueC <= 80 {
		t.Fatalf("true peak %.2f never exceeded Tmax — scenario proves nothing", st.PeakTrueC)
	}
	if res.Faults.SensorReads != steps {
		t.Fatalf("SensorReads = %d, want %d", res.Faults.SensorReads, steps)
	}
}

func TestMemoryPerfWithFaultsDegradesCPMA(t *testing.T) {
	b, _ := workload.ByName("gauss")
	clean, err := RunMemoryPerf(context.Background(), RunSpec{Seed: 1, Scale: 0.1}, Stacked32MB, b, fault.Config{})
	if err != nil {
		t.Fatal(err)
	}
	// A zero fault config records no fault activity.
	if !reflect.DeepEqual(clean.Faults, fault.Stats{}) || clean.DRAMRemapped != 0 || clean.DRAMFaultCycles != 0 {
		t.Fatalf("zero fault config recorded fault activity: %+v", clean)
	}

	faulty, err := RunMemoryPerf(context.Background(), RunSpec{Seed: 1, Scale: 0.1}, Stacked32MB, b, fault.Config{
		Seed:                    5,
		UncorrectablePerMAccess: 20000,
		DeadBanks:               []int{0, 1, 2, 3},
		TSVFailFrac:             0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if faulty.CPMA <= clean.CPMA {
		t.Fatalf("faulty CPMA %.3f not above clean %.3f", faulty.CPMA, clean.CPMA)
	}
	if faulty.Faults.Uncorrectable == 0 || faulty.Faults.Refetches == 0 {
		t.Fatalf("no ECC recovery recorded: %+v", faulty.Faults)
	}
	if faulty.DRAMRemapped == 0 || faulty.DRAMFaultCycles == 0 {
		t.Fatalf("no device degradation recorded: remapped=%d cycles=%d",
			faulty.DRAMRemapped, faulty.DRAMFaultCycles)
	}
}

func TestMemoryPerfWithFaultsRejectsBadBankKill(t *testing.T) {
	b, _ := workload.ByName("gauss")
	dead := make([]int, 16)
	for i := range dead {
		dead[i] = i
	}
	_, err := RunMemoryPerf(context.Background(), RunSpec{Seed: 1, Scale: 0.05}, Stacked32MB, b, fault.Config{DeadBanks: dead})
	if !errors.Is(err, fault.ErrAllBanksDead) {
		t.Fatalf("want ErrAllBanksDead, got %v", err)
	}
}
