package search

import (
	"context"
	"sync"
	"testing"
	"time"
)

// TestCollectorSumsConcurrentReports has eight goroutines mix warm
// answers, cold searches and fusion reports into one collector, as a
// compile's op-search pool does, and requires Snapshot to sum them
// exactly — under -race this also proves the collector's locking — and
// every method of a nil collector to be a no-op.
func TestCollectorSumsConcurrentReports(t *testing.T) {
	const goroutines, rounds = 8, 200
	cold := &Result{Elapsed: 3 * time.Nanosecond, Spaces: Spaces{
		Filtered: 1, Priced: 2, Pruned: 3, Seeded: 4, CutSubtrees: 5, CutLeaves: 6,
		Optimized: 100, TruncatedFtCombos: 100, FusedOps: 100, // not request counters
	}}
	var c Collector
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				c.answered(route(i%4), time.Nanosecond)
				c.searched(2*time.Nanosecond, cold)
				c.AddFusion(1, 2)
			}
		}()
	}
	wg.Wait()

	const n = goroutines * rounds
	want := Counts{
		RouteMemory: n / 4, RouteDisk: n / 4, RouteRemote: n / 4, RouteFlightWait: n / 4, RouteCold: n,
		FusedGroups: n, FusedOps: 2 * n,
		Filtered: n, Priced: 2 * n, Pruned: 3 * n, Seeded: 4 * n, CutSubtrees: 5 * n, CutLeaves: 6 * n,
	}
	got, probe, search := c.Snapshot()
	if got != want {
		t.Fatalf("counts = %+v,\nwant %+v", got, want)
	}
	if probe != 3*n*time.Nanosecond || search != 3*n*time.Nanosecond {
		t.Fatalf("probe = %v, cold search = %v, want %v each", probe, search, 3*n*time.Nanosecond)
	}

	// the collector-less path: every method is a no-op, the collector
	// reads zero, and attaching it leaves the context as it was
	var none *Collector
	none.answered(routeMemory, time.Second)
	none.searched(time.Second, cold)
	none.AddFusion(1, 1)
	if n, probe, search := none.Snapshot(); n != (Counts{}) || probe != 0 || search != 0 {
		t.Fatalf("nil collector read %+v, %v, %v", n, probe, search)
	}
	ctx := context.Background()
	if WithCollector(ctx, none) != ctx || CollectorFrom(ctx) != nil {
		t.Fatal("a nil collector changed the context")
	}
}
