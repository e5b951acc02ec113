package t10

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/dtype"
	"repro/internal/expr"
	"repro/internal/models"
	"repro/internal/search"
)

// wellFormed asserts the telemetry invariants every successful request
// must satisfy: stage sums bounded by the wall, route counts covering
// exactly the unique operator searches.
func wellFormed(t *testing.T, tel *Telemetry, uniqueOps int) {
	t.Helper()
	if tel.Wall <= 0 {
		t.Fatalf("wall = %v, want > 0", tel.Wall)
	}
	if sum := tel.StageSum(); sum > tel.Wall {
		t.Fatalf("stage sum %v exceeds wall %v", sum, tel.Wall)
	}
	if got := tel.RouteMemory + tel.RouteDisk + tel.RouteFlightWait + tel.RouteCold; got != uniqueOps {
		t.Fatalf("routes sum to %d, want the %d unique operator searches", got, uniqueOps)
	}
}

// TestCompileWithResultTelemetry walks one model through all three
// cache temperatures and checks the telemetry tells the story: a cold
// compile routes every unique op to the enumerator, a repeat answers
// from memory, and a fresh process over the same cache dir answers from
// disk. Plan selection is bit-identical to the plain Compile wrapper
// throughout.
func TestCompileWithResultTelemetry(t *testing.T) {
	dir := t.TempDir()
	opts := DefaultOptions()
	opts.CacheDir = dir
	c, err := New(device.IPUMK2(), opts)
	if err != nil {
		t.Fatal(err)
	}
	m := models.BERT(1)
	est, err := c.EstimateCost(m)
	if err != nil {
		t.Fatal(err)
	}
	uniq := est.Ops

	cold, err := c.CompileWithResult(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	tel := &cold.Telemetry
	wellFormed(t, tel, uniq)
	if tel.RouteCold != uniq {
		t.Fatalf("cold compile: RouteCold = %d, want %d", tel.RouteCold, uniq)
	}
	if tel.ColdSearch <= 0 || tel.Reconcile <= 0 {
		t.Fatalf("cold compile: ColdSearch = %v, Reconcile = %v, want both > 0", tel.ColdSearch, tel.Reconcile)
	}
	if tel.Filtered == 0 || tel.Priced == 0 {
		t.Fatalf("cold compile collected no space counters: %+v", tel)
	}

	warm, err := c.CompileWithResult(context.Background(), models.BERT(1))
	if err != nil {
		t.Fatal(err)
	}
	wtel := &warm.Telemetry
	wellFormed(t, wtel, uniq)
	if wtel.RouteMemory != uniq || wtel.RouteCold != 0 {
		t.Fatalf("warm compile routes: %+v, want all %d from memory", wtel, uniq)
	}
	if wtel.Filtered != 0 {
		t.Fatalf("warm compile reported %d filtered candidates, want 0 (no search ran)", wtel.Filtered)
	}
	sameExecutables(t, cold.Executable, warm.Executable)

	// a fresh compiler over the same dir: cold memory, warm disk
	c2, err := New(device.IPUMK2(), opts)
	if err != nil {
		t.Fatal(err)
	}
	disk, err := c2.CompileWithResult(context.Background(), models.BERT(1))
	if err != nil {
		t.Fatal(err)
	}
	dtel := &disk.Telemetry
	wellFormed(t, dtel, uniq)
	if dtel.RouteDisk != uniq || dtel.RouteCold != 0 {
		t.Fatalf("disk-warm compile routes: %+v, want all %d from disk", dtel, uniq)
	}
	sameExecutables(t, cold.Executable, disk.Executable)

	// the plain wrapper selects the same plans
	exe, err := c2.Compile(context.Background(), models.BERT(1))
	if err != nil {
		t.Fatal(err)
	}
	sameExecutables(t, cold.Executable, exe)
}

// TestSearchWithResultRoutes pins the single-operator telemetry: route
// classification across temperatures.
func TestSearchWithResultRoutes(t *testing.T) {
	c, err := New(device.IPUMK2(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	e := expr.MatMul("mm", 256, 256, 512, dtype.FP16)

	cold, err := c.SearchWithResult(context.Background(), e)
	if err != nil {
		t.Fatal(err)
	}
	tel := &cold.Telemetry
	wellFormed(t, tel, 1)
	if tel.RouteCold != 1 {
		t.Fatalf("cold search routes: %+v, want 1 cold", tel)
	}
	if tel.ColdSearch <= 0 {
		t.Fatalf("cold search: ColdSearch = %v, want > 0", tel.ColdSearch)
	}

	warm, err := c.SearchWithResult(context.Background(), e)
	if err != nil {
		t.Fatal(err)
	}
	wtel := &warm.Telemetry
	wellFormed(t, wtel, 1)
	if wtel.RouteMemory != 1 || wtel.ColdSearch != 0 {
		t.Fatalf("warm search: %+v, want a pure memory hit", wtel)
	}
	if wtel.Filtered != 0 {
		t.Fatal("warm search reported space counters")
	}
}

// TestTelemetryNeverChangesSelection compiles one model — every
// compile collects its telemetry — and searches each of the compile's
// unique operators again on a fresh searcher of the same configuration
// with no collector attached: the Pareto plans and estimates must match
// bit for bit. Collection observes the search, it never steers it.
// (The engine-level equivalence suite pins the same property against
// the brute-force reference.)
func TestTelemetryNeverChangesSelection(t *testing.T) {
	c, err := New(device.IPUMK2(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	cr, err := c.CompileWithResult(context.Background(), models.BERT(1))
	if err != nil {
		t.Fatal(err)
	}
	if cr.Telemetry.RouteCold == 0 {
		t.Fatalf("compile collected no cold routes: %+v", cr.Telemetry)
	}
	exe := cr.Executable
	var l searchList
	if err := c.prepare(exe.Model, &l); err != nil {
		t.Fatal(err)
	}
	got := make([]*search.Result, len(l.searches))
	for i, j := range l.models[0].slot {
		got[j] = exe.Plans[i].Result
	}
	bare := search.New(c.Spec, c.CM, c.Opts.Constraints, core.DefaultConfig())
	for j, u := range l.searches {
		want, err := bare.SearchOpCtx(context.Background(), u.e)
		if err != nil {
			t.Fatal(err)
		}
		if len(got[j].Pareto) != len(want.Pareto) {
			t.Fatalf("%s: pareto size %d with telemetry, %d without", u.e.Name, len(got[j].Pareto), len(want.Pareto))
		}
		for k := range want.Pareto {
			g, w := &got[j].Pareto[k], &want.Pareto[k]
			if g.Plan.String() != w.Plan.String() || g.Est != w.Est {
				t.Fatalf("%s: pareto[%d] differs with telemetry:\n%s %+v\nvs\n%s %+v",
					u.e.Name, k, g.Plan, g.Est, w.Plan, w.Est)
			}
		}
	}
}

// TestDetachLimitCapsDetachedRequests pins the cap deterministically by
// occupying the only detach slot out-of-band: a cancellation that wants
// to detach — a search's or a sharded compile's — is degraded to the
// plain kind (counted in Rejected), and once the slot frees, the next cancellation detaches and warms the
// cache as usual.
func TestDetachLimitCapsDetachedRequests(t *testing.T) {
	gate := NewDetachLimit(1)
	opts := DefaultOptions()
	opts.DetachLimit = gate
	c, err := New(device.IPUMK2(), opts)
	if err != nil {
		t.Fatal(err)
	}
	dead, cancel := context.WithCancel(context.Background())
	cancel()

	if !gate.tryEnter() {
		t.Fatal("could not occupy the detach slot")
	}
	e := expr.MatMul("capped", 512, 512, 1024, dtype.FP16)
	if _, err := c.Search(dead, e, WithDetachOnCancel()); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if gate.Rejected() != 1 {
		t.Fatalf("Rejected = %d, want 1 (the cap degraded the detach)", gate.Rejected())
	}
	if gate.Active() != 1 {
		t.Fatalf("Active = %d, want only the out-of-band occupant", gate.Active())
	}
	// a sharded compile asks the same gate
	if _, err := c.CompileSharded(dead, models.BERT(1), 2, WithDetachOnCancel()); !errors.Is(err, context.Canceled) {
		t.Fatalf("sharded: err = %v, want context.Canceled", err)
	}
	if gate.Rejected() != 2 || gate.Active() != 1 {
		t.Fatalf("after a capped sharded compile: Rejected = %d, Active = %d, want 2 and 1", gate.Rejected(), gate.Active())
	}
	gate.exit()

	// with the slot free, detach proceeds: the background search lands in
	// the cache and the gauge returns to zero
	e2 := expr.MatMul("granted", 512, 512, 1024, dtype.FP16)
	if _, err := c.Search(dead, e2, WithDetachOnCancel()); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		if opEstimate(c, e2).CachedOps == 1 && gate.Active() == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("granted detach never drained: Active=%d", gate.Active())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if gate.Rejected() != 2 {
		t.Fatalf("Rejected = %d after a granted detach, want still 2", gate.Rejected())
	}
}

// TestEstimateCostDiskWarm pins the disk-aware pricing: a request whose
// misses are all answerable from the disk layer weighs 1 — above the
// weight-0 memory fast path, below a cold request's fop-scaled weight.
func TestEstimateCostDiskWarm(t *testing.T) {
	dir := t.TempDir()
	opts := DefaultOptions()
	opts.CacheDir = dir
	c, err := New(device.IPUMK2(), opts)
	if err != nil {
		t.Fatal(err)
	}
	m := models.BERT(1)
	if _, err := c.Compile(context.Background(), m); err != nil {
		t.Fatal(err)
	}

	// a fresh compiler over the same dir: memory cold, disk warm
	c2, err := New(device.IPUMK2(), opts)
	if err != nil {
		t.Fatal(err)
	}
	est, err := c2.EstimateCost(models.BERT(1))
	if err != nil {
		t.Fatal(err)
	}
	if est.DiskOps != est.Ops || est.CachedOps != 0 || est.ColdOps != 0 {
		t.Fatalf("disk-warm estimate: %+v, want every op disk-warm", est)
	}
	if w := est.Weight(8); w != 1 {
		t.Fatalf("disk-warm weight = %d, want 1", w)
	}

	e := expr.MatMul("op", 256, 256, 512, dtype.FP16)
	if _, err := c2.Search(context.Background(), e); err != nil {
		t.Fatal(err)
	}
	opEst := opEstimate(c2, e)
	if opEst.CachedOps != 1 || opEst.Weight(8) != 0 {
		t.Fatalf("memory-warm op estimate: %+v, want weight 0", opEst)
	}
	c3, err := New(device.IPUMK2(), opts)
	if err != nil {
		t.Fatal(err)
	}
	opEst = opEstimate(c3, e)
	if opEst.DiskOps != 1 || opEst.Weight(8) != 1 {
		t.Fatalf("disk-warm op estimate: %+v, want DiskOps 1 / weight 1", opEst)
	}
}
