package uarch

import (
	"context"
	"strings"
	"testing"
	"testing/quick"
)

func intProg(n int, dep int32) []Inst {
	prog := make([]Inst, n)
	for i := range prog {
		prog[i] = Inst{Op: OpInt, Dep1: dep}
	}
	return prog
}

func TestValidate(t *testing.T) {
	good := PlanarConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.FetchWidth = 0
	if bad.Validate() == nil {
		t.Error("zero width accepted")
	}
	bad = good
	bad.ROBSize = 0
	if bad.Validate() == nil {
		t.Error("zero ROB accepted")
	}
	bad = good
	bad.FPLatency = -1
	if bad.Validate() == nil {
		t.Error("negative latency accepted")
	}
}

func TestOpTypeString(t *testing.T) {
	names := []string{"int", "fp", "simd", "load", "store", "branch"}
	for i, want := range names {
		if got := OpType(i).String(); got != want {
			t.Errorf("OpType(%d) = %q, want %q", i, got, want)
		}
	}
	if !strings.Contains(OpType(99).String(), "99") {
		t.Error("unknown op should include value")
	}
}

func TestEmptyProgram(t *testing.T) {
	res, err := Run(context.Background(), PlanarConfig(), nil)
	if err != nil || res.Insts != 0 {
		t.Fatalf("empty program: %+v, %v", res, err)
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	cfg := PlanarConfig()
	cfg.ROBSize = -1
	if _, err := Run(context.Background(), cfg, intProg(10, 0)); err == nil {
		t.Fatal("bad config accepted")
	}
}

func TestDeterminism(t *testing.T) {
	cfg := PlanarConfig()
	p := intProg(5000, 1)
	a, err := Run(context.Background(), cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Run(context.Background(), cfg, p)
	if a != b {
		t.Fatalf("nondeterministic: %+v vs %+v", a, b)
	}
}

func TestIndependentIntThroughput(t *testing.T) {
	cfg := PlanarConfig()
	res, err := Run(context.Background(), cfg, intProg(30000, 0))
	if err != nil {
		t.Fatal(err)
	}
	// Independent single-cycle ops sustain fetch-width throughput.
	if res.IPC < float64(cfg.FetchWidth)*0.9 {
		t.Fatalf("independent IPC = %.3f, want ~%d", res.IPC, cfg.FetchWidth)
	}
}

func TestSerialChainThroughput(t *testing.T) {
	cfg := PlanarConfig()
	res, err := Run(context.Background(), cfg, intProg(30000, 1))
	if err != nil {
		t.Fatal(err)
	}
	// A fully serial single-cycle chain runs at ~1 IPC.
	if res.IPC < 0.9 || res.IPC > 1.1 {
		t.Fatalf("serial IPC = %.3f, want ~1", res.IPC)
	}
}

func TestFPChainBoundByLatency(t *testing.T) {
	cfg := PlanarConfig()
	prog := make([]Inst, 20000)
	for i := range prog {
		prog[i] = Inst{Op: OpFP, Dep1: 1}
	}
	res, err := Run(context.Background(), cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	want := 1 / float64(cfg.FPLatency)
	if res.IPC < want*0.9 || res.IPC > want*1.1 {
		t.Fatalf("FP chain IPC = %.4f, want ~%.4f", res.IPC, want)
	}
	// Folding the FP wire stages speeds the chain up by the latency
	// ratio.
	folded, _ := Run(context.Background(), cfg.Apply(Fold{FPLatency: true}), prog)
	ratio := folded.IPC / res.IPC
	wantRatio := float64(cfg.FPLatency) / float64(cfg.FPLatency-2)
	if ratio < wantRatio*0.95 || ratio > wantRatio*1.05 {
		t.Fatalf("fold speedup = %.3f, want ~%.3f", ratio, wantRatio)
	}
}

func TestMispredictPenalty(t *testing.T) {
	cfg := PlanarConfig()
	if cfg.MispredictPenalty() <= 30 {
		t.Fatalf("mispredict penalty %d, paper requires >30", cfg.MispredictPenalty())
	}
	clean := make([]Inst, 10000)
	dirty := make([]Inst, 10000)
	for i := range clean {
		clean[i] = Inst{Op: OpBranch}
		dirty[i] = Inst{Op: OpBranch, Mispredicted: i%50 == 0}
	}
	a, err := Run(context.Background(), cfg, clean)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), cfg, dirty)
	if err != nil {
		t.Fatal(err)
	}
	if b.Cycles <= a.Cycles {
		t.Fatalf("mispredicts did not slow execution: %d vs %d", b.Cycles, a.Cycles)
	}
	if b.Mispredicts != 200 {
		t.Fatalf("Mispredicts = %d, want 200", b.Mispredicts)
	}
	// Each mispredict costs roughly the pipeline loop.
	perMiss := float64(b.Cycles-a.Cycles) / 200
	if perMiss < float64(cfg.MispredictPenalty())*0.7 {
		t.Fatalf("per-mispredict cost %.1f, want ~%d", perMiss, cfg.MispredictPenalty())
	}
}

func TestLoadClasses(t *testing.T) {
	cfg := PlanarConfig()
	prog := []Inst{
		{Op: OpLoad, Mem: MemL1},
		{Op: OpLoad, Mem: MemL2},
		{Op: OpLoad, Mem: MemMain},
	}
	res, err := Run(context.Background(), cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	if res.L1Loads != 1 || res.L2Loads != 1 || res.MemLoads != 1 {
		t.Fatalf("load classes: %+v", res)
	}
}

func TestMemLoadDominatesChain(t *testing.T) {
	cfg := PlanarConfig()
	prog := make([]Inst, 2000)
	for i := range prog {
		if i%2 == 0 {
			prog[i] = Inst{Op: OpLoad, Mem: MemMain, Dep1: 1}
		} else {
			prog[i] = Inst{Op: OpInt, Dep1: 1}
		}
	}
	res, err := Run(context.Background(), cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	// Each pair costs ~MemLatency.
	perPair := float64(res.Cycles) / 1000
	if perPair < float64(cfg.MemLatency)*0.9 {
		t.Fatalf("dependent memory chain too fast: %.1f cyc/pair", perPair)
	}
}

func TestStoreLifetimePressure(t *testing.T) {
	cfg := PlanarConfig()
	prog := make([]Inst, 30000)
	for i := range prog {
		prog[i] = Inst{Op: OpStore}
	}
	base, err := Run(context.Background(), cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	folded, err := Run(context.Background(), cfg.Apply(Fold{StoreLife: true}), prog)
	if err != nil {
		t.Fatal(err)
	}
	if folded.Cycles >= base.Cycles {
		t.Fatalf("shorter store lifetime did not help: %d vs %d", folded.Cycles, base.Cycles)
	}
}

func TestEveryFoldHelpsOrIsNeutral(t *testing.T) {
	cfg := PlanarConfig()
	// A mixed program exercising all paths.
	prog := make([]Inst, 40000)
	for i := range prog {
		switch i % 7 {
		case 0:
			prog[i] = Inst{Op: OpLoad, Mem: MemL1, Dep1: 2, FeedsFP: true}
		case 1:
			prog[i] = Inst{Op: OpFP, Dep1: 1, Dep2: 7}
		case 2, 3:
			prog[i] = Inst{Op: OpInt, Dep1: 1}
		case 4:
			prog[i] = Inst{Op: OpStore, Dep1: 3}
		case 5:
			prog[i] = Inst{Op: OpBranch, Mispredicted: i%70 == 5}
		default:
			prog[i] = Inst{Op: OpSIMD, Dep1: 4}
		}
	}
	base, err := Run(context.Background(), cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	folds := []Fold{
		{FrontEnd: true}, {TraceCache: true}, {Rename: true}, {FPLatency: true},
		{IntRF: true}, {DCache: true}, {Loop: true}, {RetireDealc: true},
		{FPLoad: true}, {StoreLife: true}, FullFold(),
	}
	var best float64
	for _, f := range folds {
		res, err := Run(context.Background(), cfg.Apply(f), prog)
		if err != nil {
			t.Fatal(err)
		}
		if res.IPC < base.IPC-1e-9 {
			t.Errorf("fold %+v hurt IPC: %.4f < %.4f", f, res.IPC, base.IPC)
		}
		if res.IPC > best {
			best = res.IPC
		}
	}
	full, _ := Run(context.Background(), cfg.Apply(FullFold()), prog)
	if full.IPC < best-1e-9 {
		t.Errorf("full fold %.4f below best single fold %.4f", full.IPC, best)
	}
}

func TestStagesEliminated(t *testing.T) {
	cfg := PlanarConfig()
	removed, total := cfg.StagesEliminated(FullFold())
	pct := float64(removed) / float64(total) * 100
	// Paper: ~25% of all pipe stages eliminated.
	if pct < 20 || pct > 30 {
		t.Fatalf("stages eliminated = %.1f%%, want ~25%%", pct)
	}
	r, _ := cfg.StagesEliminated(Fold{})
	if r != 0 {
		t.Fatalf("empty fold removed %d stages", r)
	}
}

func TestApplyNeverGoesNegative(t *testing.T) {
	cfg := PlanarConfig().Apply(FullFold())
	if err := cfg.Validate(); err != nil {
		t.Fatalf("folded config invalid: %v", err)
	}
}

// Property: IPC never exceeds fetch width and cycles grow monotonically
// with program length.
func TestIPCBoundsQuick(t *testing.T) {
	cfg := PlanarConfig()
	f := func(ops []uint8) bool {
		if len(ops) == 0 {
			return true
		}
		prog := make([]Inst, len(ops))
		for i, o := range ops {
			prog[i] = Inst{Op: OpType(o % 6), Dep1: int32(o % 5)}
			if prog[i].Op == OpLoad {
				prog[i].Mem = MemClass(o % 3)
			}
		}
		res, err := Run(context.Background(), cfg, prog)
		if err != nil {
			return false
		}
		return res.IPC <= float64(cfg.FetchWidth)+1e-9 && res.Cycles > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// mixedProg builds a deterministic program exercising every op type,
// memory class, FP-bound loads, store bursts and branches carrying
// both annotations and predictor PCs/outcomes.
func mixedProg(n int) []Inst {
	prog := make([]Inst, n)
	x := uint32(12345)
	for i := range prog {
		x = x*1664525 + 1013904223
		in := Inst{Op: OpType(x >> 29 % 6)}
		if d := int32(x>>8) % 9; int(d) <= i {
			in.Dep1 = d
		}
		if d := int32(x>>16) % 23; int(d) <= i && x&1 == 0 {
			in.Dep2 = d
		}
		switch in.Op {
		case OpLoad:
			in.Mem = MemClass(x >> 4 % 3)
			in.FeedsFP = x&2 != 0
		case OpBranch:
			in.PC = (x >> 12 % 16) * 4
			in.Taken = x&4 != 0
			in.Mispredicted = x>>20%11 == 0
		}
		prog[i] = in
	}
	return prog
}

// TestRunConfigsMatchesRun: each RunConfigs result equals a fresh Run
// on that configuration, so neither the shared timing buffers nor any
// predictor state leaks from one configuration into the next.
func TestRunConfigsMatchesRun(t *testing.T) {
	planar := PlanarConfig()
	pred := planar
	pred.Predictor = DefaultPredictor()
	smallPred := planar
	smallPred.Predictor = &PredictorConfig{TableBits: 6, HistoryBits: 3}
	narrow := planar
	narrow.ROBSize, narrow.StoreQueue, narrow.Scheduler = 8, 2, 4
	narrow.FetchWidth, narrow.RetireWidth = 1, 1
	cfgs := []Config{
		planar,
		planar.Apply(FullFold()),
		pred,
		narrow,
		pred.Apply(FullFold()),
		smallPred,
		pred,
		planar,
	}
	ctx := context.Background()
	for _, n := range []int{0, 1, 81, 5000} {
		prog := mixedProg(n)
		got, err := RunConfigs(ctx, cfgs, prog)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(cfgs) {
			t.Fatalf("n=%d: %d results for %d configs", n, len(got), len(cfgs))
		}
		for k, cfg := range cfgs {
			want, err := Run(ctx, cfg, prog)
			if err != nil {
				t.Fatal(err)
			}
			if got[k] != want {
				t.Errorf("n=%d config %d: RunConfigs %+v, Run %+v", n, k, got[k], want)
			}
		}
	}
	if res, err := RunConfigs(ctx, nil, mixedProg(10)); err != nil || len(res) != 0 {
		t.Errorf("no configs: %v, %v", res, err)
	}
}

// TestScratchReuse: one Scratch serving programs of growing and
// shrinking lengths gives every configuration the same result as a
// fresh Run, so a buffer left over from a longer program never leaks
// into a shorter one.
func TestScratchReuse(t *testing.T) {
	pred := PlanarConfig()
	pred.Predictor = DefaultPredictor()
	cfgs := []Config{PlanarConfig(), pred, PlanarConfig().Apply(FullFold())}
	ctx := context.Background()
	var s Scratch
	for _, n := range []int{81, 5000, 1, 0, 81, 5000} {
		prog := mixedProg(n)
		got, err := s.RunConfigs(ctx, cfgs, prog)
		if err != nil {
			t.Fatal(err)
		}
		for k, cfg := range cfgs {
			want, err := Run(ctx, cfg, prog)
			if err != nil {
				t.Fatal(err)
			}
			if got[k] != want {
				t.Errorf("n=%d config %d: Scratch.RunConfigs %+v, Run %+v", n, k, got[k], want)
			}
		}
	}
}

// TestRunConfigsValidatesFirst: an invalid configuration anywhere in
// the slice fails the call before any configuration is simulated. The
// context is already canceled and the program's first instruction is
// malformed, so any simulation would report one of those instead.
func TestRunConfigsValidatesFirst(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	prog := []Inst{{Op: OpType(99)}}
	bad := PlanarConfig()
	bad.ROBSize = 0
	for pos := 0; pos < 3; pos++ {
		cfgs := []Config{PlanarConfig(), PlanarConfig(), PlanarConfig()}
		cfgs[pos] = bad
		res, err := RunConfigs(ctx, cfgs, prog)
		if err == nil || res != nil {
			t.Fatalf("bad config at %d accepted: %v", pos, res)
		}
		if !strings.Contains(err.Error(), "non-positive window") {
			t.Errorf("bad config at %d: got %v, want the validation error", pos, err)
		}
	}
}
