package codegen

import (
	"testing"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/dtype"
	"repro/internal/expr"
	"repro/internal/sim"
)

// heavyRingPlan builds a plan whose weight tensor rotates around rings
// that vary the *first* (slowest) grid axis — the worst case for the
// default core numbering on a multi-chip device, since ring neighbors
// land half a device apart.
func heavyRingPlan(t *testing.T) *core.Plan {
	t.Helper()
	// B[k,n] is shared by Fop_m cores (axis m is B's missing axis, and m
	// is axis 0 → slowest in the default grid order).
	e := expr.MatMul("mm", 64, 4096, 46, dtype.FP16)
	p, err := core.NewPlan(e, []int{64, 1, 46}, [][]int{
		nil,
		{64, 1}, // B rotates its k partitions around a 64-core ring
		nil,
	}, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestOptimizeGridOrderMovesRingAxisLast(t *testing.T) {
	p := heavyRingPlan(t)
	p.GridOrder = p.OptimizedGridOrder()
	// axis m (0) carries all the ring traffic → must be fastest-varying
	if got := p.GridOrder[len(p.GridOrder)-1]; got != 0 {
		t.Errorf("grid order = %v, want axis 0 last", p.GridOrder)
	}
}

func TestOptimizeGridOrderPreservesCorrectness(t *testing.T) {
	// The order only renames cores; placement must stay valid and the
	// functional result identical.
	e := expr.MatMul("mm", 4, 12, 3, dtype.FP32)
	p, err := core.NewPlan(e, []int{4, 1, 3}, [][]int{
		{1, 3},
		{4, 1},
		nil,
	}, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	p.GridOrder = p.OptimizedGridOrder()
	if err := p.ValidatePlacement(); err != nil {
		t.Fatal(err)
	}
	runAndCompare(t, e, p, 77)
}

func TestMultiChipLoweringPrefersLocalRings(t *testing.T) {
	two := device.VIPU(2)
	naive := heavyRingPlan(t)
	identity := make([]int, 3)
	for i := range identity {
		identity[i] = i
	}
	naive.GridOrder = identity // pin the bad order
	progNaive, err := Lower(two, naive)
	if err != nil {
		t.Fatal(err)
	}
	opt := heavyRingPlan(t) // Lower applies OptimizedGridOrder itself
	progOpt, err := Lower(two, opt)
	if err != nil {
		t.Fatal(err)
	}
	stNaive := sim.Run(two, progNaive)
	stOpt := sim.Run(two, progOpt)
	if stOpt.ExchangeNs >= stNaive.ExchangeNs {
		t.Errorf("grid-order optimization did not reduce cross-chip exchange: %.1fµs vs %.1fµs",
			stOpt.ExchangeNs/1e3, stNaive.ExchangeNs/1e3)
	}
	t.Logf("2-chip exchange: naive %.1fµs → optimized %.1fµs",
		stNaive.ExchangeNs/1e3, stOpt.ExchangeNs/1e3)
}

func TestSingleChipUnaffectedByGridOrder(t *testing.T) {
	one := device.IPUMK2()
	mk := func() *core.Plan {
		e := expr.MatMul("mm", 32, 4096, 46, dtype.FP16)
		p, err := core.NewPlan(e, []int{32, 1, 46}, [][]int{
			nil, {32, 1}, nil,
		}, core.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	a := mk()
	b := mk()
	b.GridOrder = b.OptimizedGridOrder()
	pa, err := Lower(one, a)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := Lower(one, b)
	if err != nil {
		t.Fatal(err)
	}
	sa, sb := sim.Run(one, pa), sim.Run(one, pb)
	if sa.TotalNs != sb.TotalNs {
		t.Errorf("single-chip timing should not depend on grid order: %f vs %f",
			sa.TotalNs, sb.TotalNs)
	}
}
