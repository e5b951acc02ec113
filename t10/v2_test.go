package t10

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/dtype"
	"repro/internal/expr"
	"repro/internal/kernel"
	"repro/internal/models"
	"repro/internal/sema"
)

// sameExecutables asserts two compiles selected bit-identical plans:
// same idle/active partition decisions and estimates for every op.
func sameExecutables(t *testing.T, a, b *Executable) {
	t.Helper()
	if len(a.Schedule.Assignments) != len(b.Schedule.Assignments) {
		t.Fatalf("assignment counts differ: %d vs %d",
			len(a.Schedule.Assignments), len(b.Schedule.Assignments))
	}
	for i := range a.Schedule.Assignments {
		x, y := &a.Schedule.Assignments[i], &b.Schedule.Assignments[i]
		if x.Idle.Plan.String() != y.Idle.Plan.String() || x.Active.Plan.String() != y.Active.Plan.String() {
			t.Fatalf("op %d: plans differ:\n%s\nvs\n%s", i, x.Active.Plan, y.Active.Plan)
		}
		if x.Idle.Est != y.Idle.Est || x.Active.Est != y.Active.Est {
			t.Fatalf("op %d: estimates differ", i)
		}
	}
}

// TestV1ShimEquivalence pins the deprecated shims to the v2 entry
// points: CompileModel/SearchOp on one fresh compiler and
// Compile/Search on another must produce bit-identical plans AND leave
// identical plan-cache contents behind (same entry count, same set of
// answerable ops).
func TestV1ShimEquivalence(t *testing.T) {
	spec := device.IPUMK2()
	v1, err := New(spec, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	v2, err := New(spec, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	m := models.BERT(1)
	e := expr.MatMul("mm", 512, 512, 2048, dtype.FP16)

	r1, err := v1.SearchOp(e)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := v2.Search(context.Background(), e)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Pareto) != len(r2.Pareto) {
		t.Fatalf("pareto sizes differ: %d vs %d", len(r1.Pareto), len(r2.Pareto))
	}
	for i := range r1.Pareto {
		if r1.Pareto[i].Plan.String() != r2.Pareto[i].Plan.String() || r1.Pareto[i].Est != r2.Pareto[i].Est {
			t.Fatalf("pareto[%d] differs between SearchOp and Search", i)
		}
	}

	e1, err := v1.CompileModel(m)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := v2.Compile(context.Background(), models.BERT(1))
	if err != nil {
		t.Fatal(err)
	}
	sameExecutables(t, e1, e2)

	// identical cache contents: same entry count, and every unique op of
	// the workload answerable (or not) identically from both caches
	if n1, n2 := v1.PlanCache().Len(), v2.PlanCache().Len(); n1 != n2 {
		t.Fatalf("cache entry counts differ: v1=%d v2=%d", n1, n2)
	}
	est1, err := v1.EstimateCost(m)
	if err != nil {
		t.Fatal(err)
	}
	est2, err := v2.EstimateCost(m)
	if err != nil {
		t.Fatal(err)
	}
	if est1 != est2 {
		t.Fatalf("cache probe views differ: v1=%+v v2=%+v", est1, est2)
	}
	if est1.CachedOps != est1.Ops {
		t.Fatalf("compiled model not fully cached: %+v", est1)
	}
	if _, err := v1.EstimateOpCost(e); err != nil {
		t.Fatal(err)
	}

	// the ctx shims too
	if _, err := v1.CompileModelCtx(context.Background(), models.BERT(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := v1.SearchOpCtx(context.Background(), e); err != nil {
		t.Fatal(err)
	}
}

// TestWithCostFuncMatchesRegisterCostFunc pins construction-scoped
// registration to the deprecated mutation path, and the monotone
// declaration to the opaque one: all three select bit-identical Pareto
// sets (the compute floor only prunes, never changes selection).
func TestWithCostFuncMatchesRegisterCostFunc(t *testing.T) {
	spec := device.IPUMK2().Subset(64)
	f := func(task kernel.Task) float64 {
		return float64(task.M)*float64(task.N)*float64(task.K)*1e-3 +
			float64(task.InBytes+task.OutBytes)*1e-4 + 5
	}
	e := expr.MatMul("special", 256, 256, 256, dtype.FP16)

	viaOption, err := New(spec, DefaultOptions(), WithCostFunc("special", f))
	if err != nil {
		t.Fatal(err)
	}
	viaMonotone, err := New(spec, DefaultOptions(), WithMonotoneCostFunc("special", f))
	if err != nil {
		t.Fatal(err)
	}
	viaMutation, err := New(spec, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	viaMutation.RegisterCostFunc("special", f)

	rs := make([][]string, 3)
	for i, c := range []*Compiler{viaOption, viaMonotone, viaMutation} {
		r, err := c.Search(context.Background(), e)
		if err != nil {
			t.Fatal(err)
		}
		for _, cand := range r.Pareto {
			rs[i] = append(rs[i], cand.Plan.String())
		}
	}
	for i := 1; i < 3; i++ {
		if len(rs[i]) != len(rs[0]) {
			t.Fatalf("registration path %d: %d Pareto plans, want %d", i, len(rs[i]), len(rs[0]))
		}
		for j := range rs[0] {
			if rs[i][j] != rs[0][j] {
				t.Fatalf("registration path %d: plan %d differs", i, j)
			}
		}
	}
}

// TestDetachOnCancelWarmsCache is the detach contract: a cancelled
// Search with WithDetachOnCancel still returns ctx.Err() immediately,
// but the enumeration finishes in the background and lands in the plan
// cache, so the retry is a warm hit with bit-identical plans. Without
// the option, cancellation caches nothing.
func TestDetachOnCancelWarmsCache(t *testing.T) {
	c, err := New(device.IPUMK2(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	dead, cancel := context.WithCancel(context.Background())
	cancel()

	// without detach: nothing cached
	e0 := expr.MatMul("plain", 512, 512, 1024, dtype.FP16)
	if _, err := c.Search(dead, e0); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled search: err = %v, want context.Canceled", err)
	}
	if est, _ := c.EstimateOpCost(e0); est.CachedOps != 0 {
		t.Fatal("cancelled search without detach left a cache entry")
	}

	// with detach: the caller still gets ctx.Err() at once...
	e := expr.MatMul("detached", 512, 512, 1024, dtype.FP16)
	if _, err := c.Search(dead, e, WithDetachOnCancel()); !errors.Is(err, context.Canceled) {
		t.Fatalf("detached search: err = %v, want context.Canceled", err)
	}
	// ...and the background enumeration completes into the cache
	deadline := time.Now().Add(30 * time.Second)
	for {
		if est, err := c.EstimateOpCost(e); err == nil && est.CachedOps == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("detached search never reached the plan cache")
		}
		time.Sleep(5 * time.Millisecond)
	}
	warm, err := c.Search(context.Background(), e)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := New(device.IPUMK2(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := ref.Search(context.Background(), e)
	if err != nil {
		t.Fatal(err)
	}
	if len(warm.Pareto) != len(fresh.Pareto) {
		t.Fatalf("detached result differs from a fresh search: %d vs %d plans", len(warm.Pareto), len(fresh.Pareto))
	}
	for i := range warm.Pareto {
		if warm.Pareto[i].Plan.String() != fresh.Pareto[i].Plan.String() || warm.Pareto[i].Est != fresh.Pareto[i].Est {
			t.Fatalf("detached pareto[%d] differs from a fresh search", i)
		}
	}
}

// TestDetachOnCancelModelHoldsSlots pins detach on the shared-budget
// path: a cancelled model compile returns immediately, keeps its
// admission slots until the in-flight work drains, and eventually
// releases everything (no slot leak, live-worker peak within budget).
func TestDetachOnCancelModelHoldsSlots(t *testing.T) {
	pool := sema.NewShared(2, 4)
	opts := DefaultOptions()
	opts.Workers = 2
	opts.SharedPool = pool
	c, err := New(device.IPUMK2(), opts)
	if err != nil {
		t.Fatal(err)
	}
	// the deadline must expire mid-compile: ResNet-8 compiles cold in
	// some twenty times the timeout
	m := models.ResNet(8)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := c.Compile(ctx, m, WithDetachOnCancel()); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for pool.InUse() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("detached compile never released its %d budget slots", pool.InUse())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if peak := pool.Peak(); peak > 2 {
		t.Fatalf("live worker peak %d exceeds the shared budget 2", peak)
	}
	// a retry proceeds normally (and benefits from whatever was warmed)
	if _, err := c.Compile(context.Background(), m); err != nil {
		t.Fatal(err)
	}
}

// TestAdmissionWeight pins the cost-weighted admission semantics on a
// shared pool: weight-N requests need N free slots or shed, weight 0
// bypasses admission entirely, and oversized weights clamp to the pool
// capacity instead of erroring.
func TestAdmissionWeight(t *testing.T) {
	pool := sema.NewShared(4, 0) // no queue: saturation fails fast
	opts := DefaultOptions()
	opts.Workers = 4
	opts.SharedPool = pool
	c, err := New(device.IPUMK2(), opts)
	if err != nil {
		t.Fatal(err)
	}
	e := expr.MatMul("mm", 256, 256, 512, dtype.FP16)
	if _, err := c.Search(context.Background(), e); err != nil {
		t.Fatal(err) // warm the cache so the weighted calls below are instant
	}

	// occupy 2 of 4 slots: a weight-3 request must shed...
	if !pool.TryAcquire(2) {
		t.Fatal("could not occupy the pool")
	}
	if _, err := c.Search(context.Background(), e, WithAdmissionWeight(3)); !errors.Is(err, sema.ErrSaturated) {
		t.Fatalf("weight 3 on a half-full pool: err = %v, want ErrSaturated", err)
	}
	// ...a weight-2 request fits exactly...
	if _, err := c.Search(context.Background(), e, WithAdmissionWeight(2)); err != nil {
		t.Fatalf("weight 2 on a half-full pool: %v", err)
	}
	// ...and weight 0 bypasses admission even on a FULL pool
	if !pool.TryAcquire(2) {
		t.Fatal("could not fill the pool")
	}
	if _, err := c.Search(context.Background(), e, WithAdmissionWeight(0)); err != nil {
		t.Fatalf("weight 0 on a full pool: %v", err)
	}
	pool.Release(4)

	// oversized weights clamp to capacity instead of erroring
	if _, err := c.Search(context.Background(), e, WithAdmissionWeight(99)); err != nil {
		t.Fatalf("clamped oversized weight: %v", err)
	}
	if pool.InUse() != 0 {
		t.Fatalf("%d slots leaked", pool.InUse())
	}
}

// TestWeightedRequestUsesItsReservation pins the prepaid-credit path:
// a request admitted at the full pool capacity must still parallelize —
// its helper workers spend the slots the request already holds
// (sema.Credit) instead of failing TryAcquire against its own
// reservation. The instrumented live-worker peak proves helpers ran,
// and must still never exceed the capacity.
func TestWeightedRequestUsesItsReservation(t *testing.T) {
	const capacity = 4
	pool := sema.NewShared(capacity, 4)
	opts := DefaultOptions()
	opts.Workers = capacity
	opts.SharedPool = pool
	c, err := New(device.IPUMK2(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Compile(context.Background(), models.BERT(1), WithAdmissionWeight(capacity)); err != nil {
		t.Fatal(err)
	}
	if peak := pool.Peak(); peak < 2 {
		t.Errorf("live worker peak %d: a full-capacity reservation compiled single-threaded", peak)
	}
	if peak := pool.Peak(); peak > capacity {
		t.Fatalf("live worker peak %d exceeds the pool capacity %d", peak, capacity)
	}
	if pool.InUse() != 0 {
		t.Fatalf("%d slots leaked", pool.InUse())
	}
}

// TestEstimateCostWeights pins the estimate → weight mapping: cached
// requests weigh 0, a single cold op weighs a slot or two, and a cold
// multi-layer model climbs but clamps at the capacity.
func TestEstimateCostWeights(t *testing.T) {
	c, err := New(device.IPUMK2(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	m := models.BERT(1)
	est, err := c.EstimateCost(m)
	if err != nil {
		t.Fatal(err)
	}
	if est.ColdOps != est.Ops || est.CachedOps != 0 {
		t.Fatalf("fresh compiler estimate: %+v, want all ops cold", est)
	}
	if est.ColdFops == 0 {
		t.Fatal("cold model estimated zero partition candidates")
	}
	if w := est.Weight(8); w < 2 || w > 8 {
		t.Fatalf("cold BERT weight = %d, want within (1, capacity]", w)
	}
	if w := est.Weight(4); w != 4 {
		t.Fatalf("cold BERT weight on a tiny pool = %d, want clamped to 4", w)
	}

	if _, err := c.Compile(context.Background(), m); err != nil {
		t.Fatal(err)
	}
	est, err = c.EstimateCost(models.BERT(1))
	if err != nil {
		t.Fatal(err)
	}
	if est.CachedOps != est.Ops || est.ColdOps != 0 {
		t.Fatalf("compiled model estimate: %+v, want fully cached", est)
	}
	if w := est.Weight(8); w != 0 {
		t.Fatalf("fully cached weight = %d, want 0", w)
	}
}
