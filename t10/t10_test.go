package t10

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/device"
	"repro/internal/dtype"
	"repro/internal/expr"
	"repro/internal/graph"
	"repro/internal/kernel"
	"repro/internal/models"
	"repro/internal/search"
	"repro/internal/vgm"
)

var (
	once     sync.Once
	compiler *Compiler
)

func mk2Compiler(t *testing.T) *Compiler {
	t.Helper()
	once.Do(func() {
		c, err := New(device.IPUMK2(), DefaultOptions())
		if err != nil {
			panic(err)
		}
		compiler = c
	})
	return compiler
}

func TestCompileSingleOp(t *testing.T) {
	c := mk2Compiler(t)
	r, err := c.Search(context.Background(), expr.MatMul("mm", 1024, 1024, 4096, dtype.FP16))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Pareto) == 0 {
		t.Fatal("no plans")
	}
}

func TestCompileAndSimulateBERT(t *testing.T) {
	c := mk2Compiler(t)
	exe, err := c.Compile(context.Background(), models.BERT(1))
	if err != nil {
		t.Fatal(err)
	}
	rep := exe.Simulate()
	if rep.TotalNs <= 0 {
		t.Fatal("no latency")
	}
	if rep.MemPeakPerCore > int64(c.Spec.CoreMemBytes) {
		t.Errorf("memory peak %d exceeds core memory", rep.MemPeakPerCore)
	}
	// §6.2: T10 keeps the communication share at 8–43%; allow headroom
	// but it must be far below the VGM baselines' 50–74%.
	if f := rep.TransferFraction(); f > 0.5 {
		t.Errorf("T10 transfer fraction %f too high", f)
	}
	t.Logf("T10 BERT-BS1: %.3f ms (%.0f%% transfer, compile %s)",
		rep.LatencyMs(), 100*rep.TransferFraction(), rep.CompileTime)
}

func TestT10BeatsRollerOnBERT(t *testing.T) {
	// The headline result (Fig 12): T10 outperforms the VGM baselines.
	c := mk2Compiler(t)
	exe, err := c.Compile(context.Background(), models.BERT(1))
	if err != nil {
		t.Fatal(err)
	}
	t10Rep := exe.Simulate()
	rollerRep, err := vgm.New(vgm.Roller, c.Spec).CompileModel(models.BERT(1))
	if err != nil {
		t.Fatal(err)
	}
	if rollerRep.Infeasible {
		t.Fatal("Roller infeasible on BERT BS1")
	}
	speedup := rollerRep.TotalNs / t10Rep.TotalNs
	if speedup < 1.0 {
		t.Errorf("T10 (%.3f ms) should beat Roller (%.3f ms)", t10Rep.LatencyMs(), rollerRep.LatencyMs())
	}
	t.Logf("BERT-BS1 speedup over Roller: %.2fx", speedup)
}

func TestInterOpReconciliationHelps(t *testing.T) {
	// Ablation: disabling §4.3.2 must not make the model faster.
	spec := device.IPUMK2()
	withOpts := DefaultOptions()
	without := DefaultOptions()
	without.InterOp = false
	cWith, err := New(spec, withOpts)
	if err != nil {
		t.Fatal(err)
	}
	cWithout, err := New(spec, without)
	if err != nil {
		t.Fatal(err)
	}
	m := models.BERT(1)
	e1, err := cWith.Compile(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := cWithout.Compile(context.Background(), models.BERT(1))
	if err != nil {
		t.Fatal(err)
	}
	r1, r2 := e1.Simulate(), e2.Simulate()
	if r1.TotalNs > r2.TotalNs*1.001 {
		t.Errorf("inter-op reconciliation made things worse: %.3f vs %.3f ms",
			r1.LatencyMs(), r2.LatencyMs())
	}
	t.Logf("inter-op on: %.3f ms, off: %.3f ms", r1.LatencyMs(), r2.LatencyMs())
}

func TestCustomCostFunction(t *testing.T) {
	var called atomic.Bool // the search prices from several workers
	c, err := New(device.IPUMK2(), DefaultOptions(),
		WithCostFunc("special", func(task kernel.Task) float64 {
			called.Store(true)
			return 1000
		}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Search(context.Background(), expr.MatMul("special", 256, 256, 256, dtype.FP16)); err != nil {
		t.Fatal(err)
	}
	if !called.Load() {
		t.Error("custom cost function never consulted")
	}
}

// TestCustomCostOpSharingAShapeIsItsOwnSearch pins the one identity of
// "the same operator search": two ops of one shape, one of them named
// for a WithCostFunc registration, are two searches — for the compile's
// de-duplication and route counts, for EstimateCost, and for the plan
// cache alike — and each op gets the plans its own cost model priced.
func TestCustomCostOpSharingAShapeIsItsOwnSearch(t *testing.T) {
	const customNs = 1000
	c, err := New(device.IPUMK2(), DefaultOptions(),
		WithCostFunc("special", func(kernel.Task) float64 { return customNs }))
	if err != nil {
		t.Fatal(err)
	}
	m := &graph.Model{Name: "twins", BatchSize: 1, Ops: []graph.Op{
		{Name: "plain", Expr: expr.MatMul("plain", 256, 256, 256, dtype.FP16),
			WeightInputs: []int{1}, Sources: []int{graph.External, graph.External}, Repeat: 1},
		{Name: "special", Expr: expr.MatMul("special", 256, 256, 256, dtype.FP16),
			WeightInputs: []int{1}, Sources: []int{0, graph.External}, Repeat: 1},
	}}
	if est, err := c.EstimateCost(m); err != nil || est.Ops != 2 || est.ColdOps != 2 {
		t.Fatalf("estimate before = %+v (err %v), want 2 cold searches", est, err)
	}
	cr, err := c.CompileWithResult(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	tel := &cr.Telemetry
	if tel.RouteCold != 2 {
		t.Fatalf("RouteCold = %d, want 2: %+v", tel.RouteCold, tel)
	}
	// no search hides in the assembly phase
	if tel.CacheProbe*10 > tel.ColdSearch {
		t.Fatalf("CacheProbe %v is not small beside ColdSearch %v", tel.CacheProbe, tel.ColdSearch)
	}
	if est, err := c.EstimateCost(m); err != nil || est.Ops != 2 || est.CachedOps != 2 {
		t.Fatalf("estimate after = %+v (err %v), want 2 cached searches", est, err)
	}
	priced := func(r *search.Result) bool { // by the custom function?
		for _, cand := range r.Pareto {
			if cand.Est.ComputeNs != customNs*float64(cand.Plan.TotalSteps) {
				return false
			}
		}
		return true
	}
	if plain := cr.Executable.Plans[0].Result; priced(plain) {
		t.Fatal("the plain op was priced by the custom cost function")
	}
	if special := cr.Executable.Plans[1].Result; !priced(special) {
		t.Fatal("the custom op was not priced by its cost function")
	}
}

func TestLLMDecodeCompiles(t *testing.T) {
	c := mk2Compiler(t)
	cfg := models.LLMConfigs()[0] // OPT-1.3B
	exe, err := c.Compile(context.Background(), models.LLMDecode(cfg, 8))
	if err != nil {
		t.Fatal(err)
	}
	rep := exe.Simulate()
	if rep.TotalNs <= 0 {
		t.Fatal("no latency")
	}
	t.Logf("%s BS8 decode: %.3f ms", cfg.Name, rep.LatencyMs())
}

func TestInvalidModelRejected(t *testing.T) {
	c := mk2Compiler(t)
	m := models.BERT(1)
	m.Ops[0].Sources[0] = 99
	if _, err := c.Compile(context.Background(), m); err == nil {
		t.Error("invalid model should be rejected")
	}
}

func TestSimulateChargesSetupAndTransitions(t *testing.T) {
	c := mk2Compiler(t)
	exe, err := c.Compile(context.Background(), models.BERT(1))
	if err != nil {
		t.Fatal(err)
	}
	rep := exe.Simulate()
	// a 24-layer transformer inevitably re-arranges some layouts
	if rep.SetupNs <= 0 {
		t.Error("no setup/transition time charged across a whole model")
	}
	if len(rep.Ops) != len(exe.Model.Ops) {
		t.Errorf("per-op reports: %d for %d ops", len(rep.Ops), len(exe.Model.Ops))
	}
}

func TestTrainingStepCompiles(t *testing.T) {
	// §4.2: the compiler handles training graphs too — forward, backward
	// and update ops all plan and simulate.
	c := mk2Compiler(t)
	m := models.TransformerTrainingStep(2, 128, 1024, 4096, 2)
	exe, err := c.Compile(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	rep := exe.Simulate()
	if rep.TotalNs <= 0 {
		t.Fatal("no latency")
	}
	if rep.MemPeakPerCore > int64(c.Spec.CoreMemBytes) {
		t.Errorf("training step exceeds core memory: %d", rep.MemPeakPerCore)
	}
	t.Logf("training step (2 layers, BS2): %.3f ms", rep.LatencyMs())
}
