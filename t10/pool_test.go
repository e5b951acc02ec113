package t10

import (
	"context"
	"errors"
	"sync"
	"testing"

	"repro/internal/device"
	"repro/internal/dtype"
	"repro/internal/expr"
	"repro/internal/models"
	"repro/internal/plancache"
	"repro/internal/sema"
)

// TestCompileWorkerBudget instruments the compile-wide semaphore: no
// matter how Compile's per-operator pool and the cold searches'
// Fop shards nest, the number of live worker goroutines — the calling
// goroutine included — must never exceed Opts.Workers.
func TestCompileWorkerBudget(t *testing.T) {
	for _, workers := range []int{1, 3} {
		opts := DefaultOptions()
		opts.Workers = workers
		c, err := New(device.IPUMK2(), opts)
		if err != nil {
			t.Fatal(err)
		}
		m := models.BERT(1)
		if _, err := c.Compile(context.Background(), m); err != nil {
			t.Fatal(err)
		}
		if peak := c.pool.Peak(); peak > workers {
			t.Fatalf("Workers=%d: %d live worker goroutines at peak", workers, peak)
		}
		if inUse := c.pool.InUse(); inUse != 0 {
			t.Fatalf("Workers=%d: %d budget slots leaked after compile", workers, inUse)
		}
		if cap := c.pool.Cap(); cap != workers-1 {
			t.Fatalf("Workers=%d: budget capacity %d, want %d helper slots", workers, cap, workers-1)
		}
	}
}

// TestWorkerBudgetSharedAcrossNestedPools drives a single cold search,
// where the only available parallelism is *inside* the searcher: its
// Fop shards draw the helper slots the outer pool is not using, and
// together with the calling goroutine still respect the compile-wide
// cap.
func TestWorkerBudgetSharedAcrossNestedPools(t *testing.T) {
	opts := DefaultOptions()
	opts.Workers = 4
	c, err := New(device.IPUMK2(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Search(context.Background(), expr.MatMul("mm", 512, 512, 1024, dtype.FP16)); err != nil {
		t.Fatal(err)
	}
	// the caller plus helpers never exceed Workers live goroutines
	// (helpers hold the Workers-1 slots)
	if peak := c.pool.Peak(); peak > 4 {
		t.Fatalf("peak worker goroutines %d exceeds the Workers=4 budget", peak)
	}
	if inUse := c.pool.InUse(); inUse != 0 {
		t.Fatalf("%d budget slots leaked after the search", inUse)
	}
}

// TestSharedPoolBudgetAcrossCompilers is the server-wide discipline:
// two compilers and several concurrent compile calls all draw from one
// shared semaphore, so the process-wide live worker count stays within
// the pool capacity — not requests × Workers.
func TestSharedPoolBudgetAcrossCompilers(t *testing.T) {
	const budget = 3
	pool := sema.NewShared(budget, 16)
	cache := plancache.New(plancache.Options{})
	newC := func() *Compiler {
		opts := DefaultOptions()
		opts.Workers = budget
		opts.SharedPool = pool
		opts.SharedCache = cache
		c, err := New(device.IPUMK2(), opts)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	c1, c2 := newC(), newC()

	var wg sync.WaitGroup
	for i, job := range []func() error{
		func() error { _, err := c1.Compile(context.Background(), models.BERT(1)); return err },
		func() error { _, err := c2.Compile(context.Background(), models.BERT(1)); return err },
		func() error {
			_, err := c1.Search(context.Background(), expr.MatMul("mm", 512, 512, 512, dtype.FP16))
			return err
		},
		func() error {
			_, err := c2.Search(context.Background(), expr.MatMul("mm", 256, 512, 1024, dtype.FP16))
			return err
		},
	} {
		i, job := i, job
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := job(); err != nil {
				t.Errorf("job %d: %v", i, err)
			}
		}()
	}
	wg.Wait()

	if peak := pool.Peak(); peak > budget {
		t.Fatalf("shared pool: %d live worker goroutines at peak, budget %d", peak, budget)
	}
	if inUse := pool.InUse(); inUse != 0 {
		t.Fatalf("shared pool: %d slots leaked", inUse)
	}
	if waiting := pool.Waiting(); waiting != 0 {
		t.Fatalf("shared pool: %d admissions still queued", waiting)
	}
}

// TestSharedPoolSheds checks the admission path end to end: with a
// zero-length queue and the only slot held, a compile call fails fast
// with sema.ErrSaturated instead of stacking goroutines, and a compile
// whose context dies while queued returns the context error.
func TestSharedPoolSheds(t *testing.T) {
	pool := sema.NewShared(1, 0)
	opts := DefaultOptions()
	opts.Workers = 1
	opts.SharedPool = pool
	c, err := New(device.IPUMK2(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !pool.TryAcquire(1) {
		t.Fatal("could not occupy the only slot")
	}
	if _, err := c.Search(context.Background(), expr.MatMul("mm", 64, 64, 64, dtype.FP16)); !errors.Is(err, sema.ErrSaturated) {
		t.Fatalf("saturated compile: %v, want sema.ErrSaturated", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Compile(ctx, models.BERT(1)); !errors.Is(err, context.Canceled) {
		t.Fatalf("dead-context compile: %v, want context.Canceled", err)
	}
	pool.Release(1)
	// with the slot free the same compile goes through
	if _, err := c.Search(context.Background(), expr.MatMul("mm", 64, 64, 64, dtype.FP16)); err != nil {
		t.Fatal(err)
	}
	if inUse := pool.InUse(); inUse != 0 {
		t.Fatalf("%d slots leaked", inUse)
	}
}
