package t10

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/dtype"
	"repro/internal/expr"
	"repro/internal/graph"
	"repro/internal/kernel"
	"repro/internal/models"
	"repro/internal/scaleout"
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
	if opEstimate(c, e0).CachedOps != 0 {
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
		if opEstimate(c, e).CachedOps == 1 {
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
// path, for a plain and a sharded model compile alike: the cancelled
// compile returns immediately, is counted as detached, keeps its
// admission slots until the in-flight work drains, and eventually
// releases everything (no slot leak, live-worker peak within budget);
// the retry finds what the detached searches warmed.
func TestDetachOnCancelModelHoldsSlots(t *testing.T) {
	for _, chips := range []int{1, 2} {
		t.Run(fmt.Sprintf("%d chips", chips), func(t *testing.T) {
			pool := sema.NewShared(2, 4)
			gate := NewDetachLimit(0)
			opts := DefaultOptions()
			opts.Workers = 2
			opts.SharedPool = pool
			opts.DetachLimit = gate
			// the request is cancelled from inside one of its own cold
			// searches, which then stays in flight until the test has seen
			// the detached state, so it dies mid-compile on any machine
			// however fast the rest of the search is
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			held := make(chan struct{})
			release := sync.OnceFunc(func() { close(held) })
			defer release()
			var trip sync.Once
			c, err := New(device.IPUMK2(), opts, WithCostFunc("trip-mm1", func(kernel.Task) float64 {
				trip.Do(func() {
					cancel()
					<-held
				})
				return 1000
			}))
			if err != nil {
				t.Fatal(err)
			}
			compile := func(ctx context.Context, m *graph.Model, o ...CompileOption) (Telemetry, error) {
				if chips == 1 {
					cr, err := c.CompileWithResult(ctx, m, o...)
					if err != nil {
						return Telemetry{}, err
					}
					return cr.Telemetry, nil
				}
				sr, err := c.CompileShardedWithResult(ctx, m, chips, o...)
				if err != nil {
					return Telemetry{}, err
				}
				return sr.Telemetry, nil
			}
			m := shardedChain("trip", 4, 1024, 2048)
			if _, err := compile(ctx, m, WithDetachOnCancel()); !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			// the cancelled request is running detached, slots held, until
			// its in-flight searches drain
			if held, active := pool.InUse(), gate.Active(); held == 0 || active != 1 {
				t.Fatalf("after cancellation: %d slots held, %d requests detached; want the slots held by 1 detached request",
					held, active)
			}
			release()
			deadline := time.Now().Add(60 * time.Second)
			for pool.InUse() != 0 || gate.Active() != 0 {
				if time.Now().After(deadline) {
					t.Fatalf("detached compile never drained: %d budget slots, %d detached", pool.InUse(), gate.Active())
				}
				time.Sleep(10 * time.Millisecond)
			}
			if peak := pool.Peak(); peak > 2 {
				t.Fatalf("live worker peak %d exceeds the shared budget 2", peak)
			}
			// a retry proceeds normally, from what the detached searches warmed
			tel, err := compile(context.Background(), m)
			if err != nil {
				t.Fatal(err)
			}
			if tel.RouteMemory == 0 {
				t.Fatalf("retry found nothing warmed by the detached compile: %+v", tel)
			}
		})
	}
}

// TestAdmissionWeight pins cost-weighted admission on a shared pool,
// where the compiler prices every request itself: a request priced
// above the free slots sheds, one priced within them fits, a
// memory-cached request (weight 0) bypasses admission even on a full
// pool, and a price above the capacity clamps to it instead of
// erroring.
func TestAdmissionWeight(t *testing.T) {
	const capacity = 4
	pool := sema.NewShared(capacity, 0) // no queue: saturation fails fast
	opts := DefaultOptions()
	opts.Workers = capacity
	opts.SharedPool = pool
	c, err := New(device.IPUMK2(), opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	heavy := models.BERT(1)
	est, err := c.EstimateCost(heavy)
	if err != nil {
		t.Fatal(err)
	}
	if unclamped := 1 + est.ColdFops/WeightFopUnit; unclamped <= capacity {
		t.Fatalf("cold BERT-1 prices to %d slots, want above the capacity %d", unclamped, capacity)
	}
	cheap := expr.MatMul("mm", 256, 256, 512, dtype.FP16)
	cheapWeight := opEstimate(c, cheap).Weight(capacity)
	if cheapWeight < 1 || cheapWeight > 2 {
		t.Fatalf("cold op prices to %d slots, want 1 or 2", cheapWeight)
	}

	// occupy 2 of 4 slots: the heavy request must shed...
	if !pool.TryAcquire(2) {
		t.Fatal("could not occupy the pool")
	}
	if _, err := c.Compile(ctx, heavy); !errors.Is(err, sema.ErrSaturated) {
		t.Fatalf("cold BERT-1 on a half-full pool: err = %v, want ErrSaturated", err)
	}
	// ...the cheap cold op fits, charged its price...
	sr, err := c.SearchWithResult(ctx, cheap)
	if err != nil {
		t.Fatalf("cold op on a half-full pool: %v", err)
	}
	if sr.Telemetry.AdmissionWeight != cheapWeight {
		t.Fatalf("cold op charged %d slots, priced %d", sr.Telemetry.AdmissionWeight, cheapWeight)
	}
	// ...and, now cached, it weighs 0 and bypasses admission even on a
	// FULL pool
	if !pool.TryAcquire(2) {
		t.Fatal("could not fill the pool")
	}
	if sr, err = c.SearchWithResult(ctx, cheap); err != nil {
		t.Fatalf("cached op on a full pool: %v", err)
	}
	if sr.Telemetry.AdmissionWeight != 0 {
		t.Fatalf("cached op charged %d slots, want 0", sr.Telemetry.AdmissionWeight)
	}
	pool.Release(4)

	// the heavy price clamps to the capacity instead of erroring
	cr, err := c.CompileWithResult(ctx, heavy)
	if err != nil {
		t.Fatalf("clamped heavy compile: %v", err)
	}
	if cr.Telemetry.AdmissionWeight != capacity {
		t.Fatalf("cold BERT-1 charged %d slots, want the capacity %d", cr.Telemetry.AdmissionWeight, capacity)
	}
	if pool.InUse() != 0 {
		t.Fatalf("%d slots leaked", pool.InUse())
	}
}

// opEstimate prices one operator search: what SearchWithResult charges
// at admission on a shared pool.
func opEstimate(c *Compiler, e *expr.Expr) CostEstimate {
	return c.estimate(&searchList{searches: []opSearch{{c.searcher.Key(e), e}}})
}

// TestAdmissionPriceIsTheEstimate pins where a request's price comes
// from: on a shared pool every request kind — an op search, a model
// compile, a 2-chip compile — is charged exactly what the estimate
// weighs its listed searches at (the op's key, EstimateCost's model
// listing, the sharded stage list) in the same cache state, cold,
// disk-warm (a fresh compiler over the same directory) and memory-warm
// alike. Memory-warm, a request that assembles one model weighs 0 and
// the 2-chip one, which assembles its stages one after another, 1. A
// private pool charges nothing.
func TestAdmissionPriceIsTheEstimate(t *testing.T) {
	const capacity = 8
	ctx := context.Background()
	op := expr.MatMul("mm", 512, 256, 1024, dtype.FP16)
	m := models.BERT(1)
	kinds := []struct {
		name  string
		price func(*Compiler) (CostEstimate, error)
		run   func(*Compiler) (Telemetry, error)
		warm  int // the memory-warm weight
	}{
		{"op", func(c *Compiler) (CostEstimate, error) { return opEstimate(c, op), nil },
			func(c *Compiler) (Telemetry, error) {
				sr, err := c.SearchWithResult(ctx, op)
				if err != nil {
					return Telemetry{}, err
				}
				return sr.Telemetry, nil
			}, 0},
		{"model", func(c *Compiler) (CostEstimate, error) { return c.EstimateCost(m) },
			func(c *Compiler) (Telemetry, error) {
				cr, err := c.CompileWithResult(ctx, m)
				if err != nil {
					return Telemetry{}, err
				}
				return cr.Telemetry, nil
			}, 0},
		{"2-chip", func(c *Compiler) (CostEstimate, error) {
			var l searchList
			if _, err := c.listSharded(m, scaleout.Config{NChips: 2, Microbatches: 2}, &l); err != nil {
				return CostEstimate{}, err
			}
			return c.estimate(&l), nil
		},
			func(c *Compiler) (Telemetry, error) {
				sr, err := c.CompileShardedWithResult(ctx, m, 2, WithPipelineMicrobatches(2))
				if err != nil {
					return Telemetry{}, err
				}
				return sr.Telemetry, nil
			}, 1},
	}
	for _, k := range kinds {
		dir := t.TempDir()
		newC := func(pool *sema.Sem) *Compiler {
			opts := DefaultOptions()
			opts.Workers = 2
			opts.CacheDir = dir
			opts.SharedPool = pool
			c, err := New(device.IPUMK2(), opts)
			if err != nil {
				t.Fatal(err)
			}
			return c
		}
		warm := newC(sema.NewShared(capacity, 4))
		for _, step := range []struct {
			temp string
			c    *Compiler
		}{{"cold", warm}, {"memory-warm", warm}, {"disk-warm", newC(sema.NewShared(capacity, 4))}} {
			est, err := k.price(step.c)
			if err != nil {
				t.Fatal(err)
			}
			tel, err := k.run(step.c)
			if err != nil {
				t.Fatalf("%s %s: %v", step.temp, k.name, err)
			}
			if want := est.Weight(capacity); tel.AdmissionWeight != want {
				t.Errorf("%s %s: charged %d slots, EstimateCost weighs %d (%+v)",
					step.temp, k.name, tel.AdmissionWeight, want, est)
			}
			if step.temp == "memory-warm" && tel.AdmissionWeight != k.warm {
				t.Errorf("memory-warm %s: charged %d slots, want %d", k.name, tel.AdmissionWeight, k.warm)
			}
			if step.temp == "cold" && tel.AdmissionWeight == 0 {
				t.Errorf("cold %s: admitted at weight 0", k.name)
			}
		}
		tel, err := k.run(newC(nil))
		if err != nil {
			t.Fatal(err)
		}
		if tel.AdmissionWeight != 0 {
			t.Errorf("private pool %s: charged %d slots, want 0", k.name, tel.AdmissionWeight)
		}
	}
}

// TestWeightedRequestUsesItsReservation pins the prepaid-credit path:
// a request admitted at the full pool capacity — a cold BERT-1 prices
// to it — must still parallelize: its helper workers spend the slots
// the request already holds (the credit sema.Sem.Admit attaches)
// instead of failing TryAcquire against its own reservation. The
// instrumented live-worker peak proves helpers ran, and must still
// never exceed the capacity.
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
	cr, err := c.CompileWithResult(context.Background(), models.BERT(1))
	if err != nil {
		t.Fatal(err)
	}
	if w := cr.Telemetry.AdmissionWeight; w != capacity {
		t.Fatalf("cold BERT-1 admitted at %d slots, want the capacity %d", w, capacity)
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
