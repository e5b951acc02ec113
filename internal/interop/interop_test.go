package interop

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/device"
	"repro/internal/dtype"
	"repro/internal/expr"
	"repro/internal/graph"
	"repro/internal/search"
)

var (
	once sync.Once
	cm   *costmodel.Set
	sch  *search.Searcher
)

func searcher() *search.Searcher {
	once.Do(func() {
		cm = costmodel.MustNewSet(device.IPUMK2())
		sch = search.New(device.IPUMK2(), cm, search.DefaultConstraints(), core.DefaultConfig())
	})
	return sch
}

func opPlans(t *testing.T, name string, m, k, n, repeat int) OpPlans {
	t.Helper()
	e := expr.MatMul(name, m, k, n, dtype.FP16)
	r, err := searcher().SearchOp(e)
	if err != nil {
		t.Fatal(err)
	}
	op := &graph.Op{Name: name, Expr: e, WeightInputs: []int{1},
		Sources: []int{graph.External, graph.External}, Repeat: repeat}
	return OpPlans{Op: op, Result: r}
}

func TestReconcileSmallModel(t *testing.T) {
	spec := device.IPUMK2()
	ops := []OpPlans{
		opPlans(t, "ffn1", 1024, 1024, 4096, 24),
		opPlans(t, "ffn2", 1024, 4096, 1024, 24),
		opPlans(t, "proj", 1024, 1024, 1024, 24),
	}
	s, err := Reconcile(spec, ops, int64(spec.CoreMemBytes))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Assignments) != 3 {
		t.Fatalf("assignments = %d", len(s.Assignments))
	}
	if s.TotalNs <= 0 {
		t.Error("total time must be positive")
	}
	if s.IdleMemPerCore > int64(spec.CoreMemBytes) {
		t.Error("idle memory exceeds the chip")
	}
	// every active plan fits next to the other idle footprints
	for i, a := range s.Assignments {
		others := s.IdleMemPerCore - a.IdleMemPerCore
		if a.Active.Est.MemPerCore+others > int64(spec.CoreMemBytes) {
			t.Errorf("op %d: active %d + others idle %d exceeds core memory",
				i, a.Active.Est.MemPerCore, others)
		}
	}
}

func TestReconcileImprovesOverInitialPoint(t *testing.T) {
	spec := device.IPUMK2()
	ops := []OpPlans{
		opPlans(t, "hot", 2048, 2048, 2048, 24), // executes 24× — worth idle memory
		opPlans(t, "cold", 512, 512, 512, 1),
	}
	s, err := Reconcile(spec, ops, int64(spec.CoreMemBytes))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Trace) < 2 {
		t.Skip("no trade-off available on this frontier")
	}
	first := s.Trace[0]
	if s.TotalNs > first.TotalNs {
		t.Errorf("greedy result %f worse than starting point %f", s.TotalNs, first.TotalNs)
	}
	// the best point is on the trace
	found := false
	for _, p := range s.Trace {
		if p.TotalNs == s.TotalNs && p.IdleMemPerCore == s.IdleMemPerCore {
			found = true
		}
	}
	if !found {
		t.Error("returned schedule not on the search trace")
	}
}

func TestHotOperatorGetsIdleMemoryFirst(t *testing.T) {
	// Two identical ops, one repeated 24×: if anyone's idle layout is
	// upgraded beyond minimum, the hot op must be at least as upgraded.
	spec := device.IPUMK2()
	ops := []OpPlans{
		opPlans(t, "hot", 1024, 1024, 4096, 24),
		opPlans(t, "cold", 1024, 1024, 4095, 1), // distinct shape, same scale
	}
	s, err := Reconcile(spec, ops, int64(spec.CoreMemBytes))
	if err != nil {
		t.Fatal(err)
	}
	hot, cold := s.Assignments[0], s.Assignments[1]
	if cold.SetupNs == 0 && hot.SetupNs > 0 {
		t.Errorf("cold op eliminated setup (%f) while hot op still pays %f",
			cold.SetupNs, hot.SetupNs)
	}
}

func TestReconcileInfeasible(t *testing.T) {
	spec := device.IPUMK2()
	ops := []OpPlans{opPlans(t, "big", 4096, 4096, 4096, 1)}
	// far below any plan's footprint
	_, err := Reconcile(spec, ops, 1024)
	if err == nil {
		t.Fatal("1KB budget should be infeasible")
	}
	if _, ok := err.(*InfeasibleError); !ok {
		t.Fatalf("want InfeasibleError, got %T: %v", err, err)
	}
}

func TestReconcileEmptyModel(t *testing.T) {
	s, err := Reconcile(device.IPUMK2(), nil, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if s.TotalNs != 0 || len(s.Assignments) != 0 {
		t.Error("empty model should produce an empty schedule")
	}
}

func TestSetupCostModel(t *testing.T) {
	spec := device.IPUMK2()
	op := opPlans(t, "x", 1024, 1024, 1024, 1)
	pareto := op.Result.Pareto
	if len(pareto) < 2 {
		t.Skip("need at least two plans")
	}
	a, b := &pareto[0], &pareto[len(pareto)-1]
	// same plan: free
	if SetupMovedBytes(&op, b, b) != 0 {
		t.Error("idle == active must move nothing")
	}
	// different plans: moves bytes
	if SetupMovedBytes(&op, a, b) <= 0 {
		t.Error("layout change must move bytes")
	}
	// against the same active plan, holding more idle bytes can only
	// reduce the re-layout volume
	mid := &pareto[len(pareto)/2]
	if len(pareto) >= 3 && SetupMovedBytes(&op, mid, b) > SetupMovedBytes(&op, a, b) {
		t.Error("bigger idle layout should not increase setup toward the same active plan")
	}

	// the formula itself: all of the active bytes from nothing, half of
	// them from an equal layout, never negative, and non-increasing in
	// the idle bytes
	for _, tc := range []struct{ wi, wa, want int64 }{
		{0, 100, 100}, {100, 100, 50}, {101, 101, 51}, {40, 100, 80},
		{300, 100, 50}, {0, 0, 0}, {7, 0, 0},
	} {
		if got := movedBytes(tc.wi, tc.wa); got != tc.want {
			t.Errorf("movedBytes(%d, %d) = %d, want %d", tc.wi, tc.wa, got, tc.want)
		}
	}
	for wa := int64(0); wa < 40; wa++ {
		for wi := int64(0); wi < 80; wi++ {
			if m := movedBytes(wi, wa); m < 0 || (wi > 0 && m > movedBytes(wi-1, wa)) {
				t.Fatalf("movedBytes(%d, %d) = %d not in [0, movedBytes(%d, %d)]", wi, wa, m, wi-1, wa)
			}
		}
	}

	// what reconciliation charges is what Simulate will move
	s, err := Reconcile(spec, []OpPlans{op}, int64(spec.CoreMemBytes))
	if err != nil {
		t.Fatal(err)
	}
	for _, asg := range s.Assignments {
		want := 0.0
		if moved := SetupMovedBytes(&op, asg.Idle, asg.Active); moved > 0 {
			want = float64(moved)/spec.LinkBytesPerNs() + spec.ExchangeStartupNs + spec.SyncNs
		}
		if asg.SetupNs != want {
			t.Errorf("SetupNs %v, want %v from SetupMovedBytes", asg.SetupNs, want)
		}
	}
}

func TestTraceMonotonicIdleMemory(t *testing.T) {
	spec := device.IPUMK2()
	ops := []OpPlans{
		opPlans(t, "a", 1024, 1024, 4096, 8),
		opPlans(t, "b", 1024, 4096, 1024, 8),
	}
	s, err := Reconcile(spec, ops, int64(spec.CoreMemBytes))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(s.Trace); i++ {
		if s.Trace[i].IdleMemPerCore <= s.Trace[i-1].IdleMemPerCore {
			t.Fatal("idle memory must grow monotonically along the greedy trace")
		}
	}
}
