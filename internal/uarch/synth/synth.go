// Package synth generates the synthetic single-thread workloads that
// drive the Logic+Logic microarchitecture study.
//
// The paper used 650+ proprietary product traces spanning SPECint,
// SPECfp, hand-written kernels, multimedia, internet, productivity,
// server, and workstation applications. Those traces are not
// available, so each application class is replaced by a statistical
// instruction-stream generator with the class's characteristic opcode
// mix, dependence distances, branch-misprediction rate, and cache
// behaviour — the properties the pipeline model's Table 4 sensitivity
// actually depends on.
package synth

import (
	"fmt"

	"diestack/internal/stats"
	"diestack/internal/uarch"
)

// Profile statistically describes one application class.
type Profile struct {
	Name string
	// Weight is the class's share when averaging across the suite
	// (the paper weights its 650 traces; we weight classes).
	Weight float64
	// Opcode mix; must sum to 1.
	Int, FP, SIMD, Load, Store, Branch float64
	// MispredictRate is the fraction of branches that redirect.
	MispredictRate float64
	// L2Frac and MemFrac are per-load miss fractions.
	L2Frac, MemFrac float64
	// MeanDepDist is the mean producer-consumer distance in
	// instructions (short = serial code).
	MeanDepDist float64
	// DepFrac is the fraction of instructions carrying a register
	// dependence.
	DepFrac float64
	// FPChainFrac is the fraction of FP ops depending on the previous
	// FP op (long FP chains are what the RF-to-FP wire stages hurt).
	FPChainFrac float64
	// FeedsFPFrac is the fraction of loads consumed by the FP unit.
	FeedsFPFrac float64
	// StoreBurst makes stores arrive in runs (pressuring the store
	// queue): probability that a store is followed by another store.
	StoreBurst float64
}

// Validate reports malformed profiles.
func (p Profile) Validate() error {
	sum := p.Int + p.FP + p.SIMD + p.Load + p.Store + p.Branch
	if sum < 0.999 || sum > 1.001 {
		return fmt.Errorf("synth: %s opcode mix sums to %v", p.Name, sum)
	}
	if p.MispredictRate < 0 || p.MispredictRate > 1 ||
		p.L2Frac < 0 || p.MemFrac < 0 || p.L2Frac+p.MemFrac > 1 {
		return fmt.Errorf("synth: %s has invalid rates", p.Name)
	}
	if p.MeanDepDist < 1 {
		return fmt.Errorf("synth: %s MeanDepDist %v < 1", p.Name, p.MeanDepDist)
	}
	if p.Weight <= 0 {
		return fmt.Errorf("synth: %s non-positive weight", p.Name)
	}
	return nil
}

// Profiles returns the eight application classes in suite order.
func Profiles() []Profile {
	return []Profile{
		{
			Name: "specint", Weight: 2,
			Int: 0.42, FP: 0.00, SIMD: 0.02, Load: 0.26, Store: 0.12, Branch: 0.18,
			MispredictRate: 0.07, L2Frac: 0.05, MemFrac: 0.008,
			MeanDepDist: 4, DepFrac: 0.75, FPChainFrac: 0, FeedsFPFrac: 0,
			StoreBurst: 0.25,
		},
		{
			Name: "specfp", Weight: 2,
			Int: 0.22, FP: 0.30, SIMD: 0.02, Load: 0.28, Store: 0.12, Branch: 0.06,
			MispredictRate: 0.02, L2Frac: 0.06, MemFrac: 0.006,
			MeanDepDist: 6, DepFrac: 0.7, FPChainFrac: 0.75, FeedsFPFrac: 0.6,
			StoreBurst: 0.3,
		},
		{
			Name: "kernels", Weight: 1,
			Int: 0.20, FP: 0.34, SIMD: 0.06, Load: 0.26, Store: 0.10, Branch: 0.04,
			MispredictRate: 0.01, L2Frac: 0.04, MemFrac: 0.003,
			MeanDepDist: 3, DepFrac: 0.8, FPChainFrac: 0.85, FeedsFPFrac: 0.7,
			StoreBurst: 0.4,
		},
		{
			Name: "multimedia", Weight: 1,
			Int: 0.26, FP: 0.06, SIMD: 0.28, Load: 0.22, Store: 0.12, Branch: 0.06,
			MispredictRate: 0.025, L2Frac: 0.06, MemFrac: 0.01,
			MeanDepDist: 8, DepFrac: 0.6, FPChainFrac: 0.3, FeedsFPFrac: 0.3,
			StoreBurst: 0.45,
		},
		{
			Name: "internet", Weight: 1,
			Int: 0.40, FP: 0.01, SIMD: 0.03, Load: 0.27, Store: 0.13, Branch: 0.16,
			MispredictRate: 0.09, L2Frac: 0.07, MemFrac: 0.012,
			MeanDepDist: 4, DepFrac: 0.7, FPChainFrac: 0, FeedsFPFrac: 0.05,
			StoreBurst: 0.3,
		},
		{
			Name: "productivity", Weight: 1,
			Int: 0.41, FP: 0.02, SIMD: 0.04, Load: 0.25, Store: 0.13, Branch: 0.15,
			MispredictRate: 0.08, L2Frac: 0.06, MemFrac: 0.01,
			MeanDepDist: 5, DepFrac: 0.7, FPChainFrac: 0.1, FeedsFPFrac: 0.1,
			StoreBurst: 0.35,
		},
		{
			Name: "server", Weight: 1,
			Int: 0.38, FP: 0.01, SIMD: 0.01, Load: 0.30, Store: 0.14, Branch: 0.16,
			MispredictRate: 0.09, L2Frac: 0.12, MemFrac: 0.03,
			MeanDepDist: 5, DepFrac: 0.65, FPChainFrac: 0, FeedsFPFrac: 0.02,
			StoreBurst: 0.5,
		},
		{
			Name: "workstation", Weight: 1,
			Int: 0.30, FP: 0.14, SIMD: 0.10, Load: 0.26, Store: 0.12, Branch: 0.08,
			MispredictRate: 0.035, L2Frac: 0.07, MemFrac: 0.012,
			MeanDepDist: 6, DepFrac: 0.7, FPChainFrac: 0.55, FeedsFPFrac: 0.4,
			StoreBurst: 0.35,
		},
	}
}

// ByName looks a profile up by name.
func ByName(name string) (Profile, bool) {
	for _, p := range Profiles() {
		if p.Name == name {
			return p, true
		}
	}
	return Profile{}, false
}

// Generate emits n instructions of the profile, deterministic in seed.
func (p Profile) Generate(seed uint64, n int) []uarch.Inst {
	prog := make([]uarch.Inst, n)
	p.fill(seed, prog)
	return prog
}

// fill overwrites every element of prog with the first len(prog)
// instructions Generate would emit for seed.
func (p Profile) fill(seed uint64, prog []uarch.Inst) {
	rng := stats.NewRNG(seed ^ hashName(p.Name))
	lastFP := -1
	lastFPLoad := -1
	inStoreBurst := false

	// Static branch population for predictor-mode runs: each static
	// branch gets a PC and a taken bias; the per-instance outcome is
	// drawn from that bias. The Mispredicted annotation (used when no
	// predictor is configured) is drawn independently from the
	// profile's misprediction rate, as before.
	const staticBranches = 64
	bias := make([]float64, staticBranches)
	for i := range bias {
		switch i % 4 {
		case 0:
			bias[i] = 0.98 // loop back-edges: almost always taken
		case 1:
			bias[i] = 0.05 // guard branches: almost never taken
		case 2:
			bias[i] = 0.85
		default:
			bias[i] = 0.5 + (rng.Float64()-0.5)*0.6 // data-dependent
		}
	}
	for i := range prog {
		var in uarch.Inst
		r := rng.Float64()
		switch {
		case inStoreBurst:
			in.Op = uarch.OpStore
			inStoreBurst = rng.Bool(p.StoreBurst)
		case r < p.Int:
			in.Op = uarch.OpInt
		case r < p.Int+p.FP:
			in.Op = uarch.OpFP
		case r < p.Int+p.FP+p.SIMD:
			in.Op = uarch.OpSIMD
		case r < p.Int+p.FP+p.SIMD+p.Load:
			in.Op = uarch.OpLoad
		case r < p.Int+p.FP+p.SIMD+p.Load+p.Store:
			in.Op = uarch.OpStore
			inStoreBurst = rng.Bool(p.StoreBurst)
		default:
			in.Op = uarch.OpBranch
		}

		if rng.Bool(p.DepFrac) {
			d := rng.Geometric(1 / p.MeanDepDist)
			if d > i {
				d = i
			}
			in.Dep1 = int32(d)
		}
		switch in.Op {
		case uarch.OpFP:
			if lastFP >= 0 && rng.Bool(p.FPChainFrac) {
				in.Dep2 = int32(i - lastFP)
			}
			if lastFPLoad >= 0 && i-lastFPLoad <= 16 {
				// The FP op consumes the pending FP-bound load (axpy
				// style: one load operand, one chained accumulator) —
				// the paper's "FP load latency" path.
				in.Dep1 = int32(i - lastFPLoad)
				lastFPLoad = -1
			}
			lastFP = i
		case uarch.OpLoad:
			mr := rng.Float64()
			switch {
			case mr < p.MemFrac:
				in.Mem = uarch.MemMain
			case mr < p.MemFrac+p.L2Frac:
				in.Mem = uarch.MemL2
			}
			if rng.Bool(p.FeedsFPFrac) {
				in.FeedsFP = true
				lastFPLoad = i
			}
		case uarch.OpBranch:
			in.Mispredicted = rng.Bool(p.MispredictRate)
			// Hot loop branches dominate dynamic execution: skew the
			// static-branch selection geometrically.
			static := rng.Geometric(0.12) - 1
			if static >= staticBranches {
				static = rng.Intn(staticBranches)
			}
			in.PC = uint32(static) * 4
			in.Taken = rng.Bool(bias[static])
		}
		prog[i] = in
	}
}

// hashName folds a profile name into the seed so distinct profiles
// draw independent streams.
func hashName(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return h
}
