package codegen

import (
	"testing"

	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/device"
	"repro/internal/dtype"
	"repro/internal/expr"
	"repro/internal/search"
	"repro/internal/sim"
)

func TestFunctionalStridedConv(t *testing.T) {
	// stride-2 convolution with channel and height partitioning
	e := expr.Conv2D("conv", 1, 2, 2, 4, 4, 3, 3, 2, dtype.FP32)
	//                      b  f  c  h  w kh kw s
	p := mustPlan(t, e, []int{1, 2, 1, 2, 2, 1, 1}, nil)
	runAndCompare(t, e, p, 11)
}

func TestFunctionalStridedPool(t *testing.T) {
	e := expr.Pool2D("pool", 2, 2, 3, 3, 3, 3, 3, dtype.FP32)
	p := mustPlan(t, e, []int{2, 2, 3, 1, 1, 1}, nil)
	runAndCompare(t, e, p, 12)
}

func TestFunctionalBatchedMatMul(t *testing.T) {
	e := expr.BatchMatMul("bmm", 4, 2, 6, 2, dtype.FP32)
	// partition batch and n; rotate both operands along k
	p := mustPlan(t, e, []int{4, 1, 1, 2}, [][]int{
		{1, 1, 2}, // A rotates along k (shared by Fop_n=2 cores)
		nil,       // B replicated across its sharing group
		nil,
	})
	runAndCompare(t, e, p, 13)
}

func TestFunctionalHighReplication(t *testing.T) {
	// rings > 1: temporal factor strictly divides the sharing degree, so
	// each sub-tensor is replicated across 2 rings of 2 cores.
	e := expr.MatMul("mm", 8, 8, 4, dtype.FP32)
	p := mustPlan(t, e, []int{2, 1, 4}, [][]int{
		{1, 2}, // A: ShareP=4, ∏ft=2 → 2 rings
		nil,
		nil,
	})
	if p.Tensors[0].Rings != 2 {
		t.Fatalf("rings = %d, want 2", p.Tensors[0].Rings)
	}
	runAndCompare(t, e, p, 14)
}

func TestFunctionalSingleCore(t *testing.T) {
	// the degenerate 1-core plan must still work
	e := expr.MatMul("mm", 4, 4, 4, dtype.FP32)
	p := mustPlan(t, e, []int{1, 1, 1}, nil)
	runAndCompare(t, e, p, 15)
}

func TestExecuteRejectsNonDivisible(t *testing.T) {
	e := expr.MatMul("mm", 5, 4, 4, dtype.FP32) // 5 does not divide by 2
	p := mustPlan(t, e, []int{2, 1, 1}, nil)
	if _, err := Execute(p, map[string][]float32{
		"A": make([]float32, 5*4), "B": make([]float32, 4*4),
	}); err == nil {
		t.Error("padded plan must be rejected by functional execution")
	}
}

func TestExecuteRejectsMissingInput(t *testing.T) {
	e := expr.MatMul("mm", 4, 4, 4, dtype.FP32)
	p := mustPlan(t, e, []int{2, 1, 1}, nil)
	if _, err := Execute(p, map[string][]float32{"A": make([]float32, 16)}); err == nil {
		t.Error("missing input must error")
	}
}

func TestSearchedPlansExecuteCorrectly(t *testing.T) {
	// End-to-end: plans found by the real search must compute correct
	// results when divisible — the full pipeline proof.
	small := device.IPUMK2().Subset(16)
	cm := costmodel.MustNewSet(small)
	s := search.New(small, cm,
		search.Constraints{ParallelismMin: 0.5, PaddingMin: 1.0},
		core.DefaultConfig())
	e := expr.MatMul("mm", 8, 16, 8, dtype.FP32)
	r, err := s.SearchOp(e)
	if err != nil {
		t.Fatal(err)
	}
	verified := 0
	for _, c := range r.Pareto {
		divisible := true
		for a := range e.Axes {
			if c.Plan.SubLen[a]*c.Plan.Fop[a] != e.Axes[a].Size {
				divisible = false
			}
		}
		if !divisible {
			continue
		}
		runAndCompare(t, e, c.Plan, 16)
		verified++
	}
	if verified == 0 {
		t.Fatal("no divisible Pareto plan to verify")
	}
	t.Logf("functionally verified %d searched Pareto plans", verified)
}

func TestLoweredTimingConsistency(t *testing.T) {
	// The simulated time of a lowered plan must be within a reasonable
	// band of the cost-model estimate (they use different kernel models,
	// but gross agreement is what makes the search meaningful).
	spec := device.IPUMK2()
	cm := costmodel.MustNewSet(spec)
	e := expr.MatMul("mm", 1024, 1024, 1024, dtype.FP16)
	p := mustPlan(t, e, []int{16, 1, 92}, [][]int{nil, {16, 1}, nil})
	est := p.Estimate(cm)
	prog, err := Lower(spec, p)
	if err != nil {
		t.Fatal(err)
	}
	st := sim.Run(spec, prog)
	ratio := st.TotalNs / est.TotalNs
	if ratio < 0.5 || ratio > 2.0 {
		t.Errorf("simulated/estimated = %.2f (sim %.1fµs, est %.1fµs): models diverge",
			ratio, st.TotalNs/1e3, est.TotalNs/1e3)
	}
}
