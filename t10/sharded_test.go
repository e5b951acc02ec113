package t10

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/device"
	"repro/internal/dtype"
	"repro/internal/expr"
	"repro/internal/graph"
	"repro/internal/interop"
	"repro/internal/kernel"
	"repro/internal/models"
	"repro/internal/scaleout"
	"repro/internal/search"
	"repro/internal/sema"
)

// shardedChain builds a linear model of n rows×dim×dim matmuls, each
// with its own weight.
func shardedChain(name string, n, rows, dim int) *graph.Model {
	m := &graph.Model{Name: name, BatchSize: 1}
	for i := 0; i < n; i++ {
		src := i - 1
		if i == 0 {
			src = graph.External
		}
		m.Ops = append(m.Ops, graph.Op{
			Name:         fmt.Sprintf("mm%d", i),
			Expr:         expr.MatMul(fmt.Sprintf("%s-mm%d", name, i), rows, dim, dim, dtype.FP16),
			WeightInputs: []int{1},
			Sources:      []int{src, graph.External},
			Repeat:       1,
		})
	}
	return m
}

// pricedIsSimulated requires the partition's priced total to equal the
// end-to-end simulation bit for bit: the search priced every candidate
// from its stages' simulations, so there is nothing left to re-price.
func pricedIsSimulated(t *testing.T, se *ShardedExecutable) {
	t.Helper()
	if priced, simulated := se.Partition.TotalNs, se.Simulate().TotalNs; priced != simulated {
		t.Fatalf("%d chips: priced total %v, simulated %v", se.Chips(), priced, simulated)
	}
}

func TestShardedEquivalence(t *testing.T) {
	ctx := context.Background()

	t.Run("one chip is bit-identical to plain Compile", func(t *testing.T) {
		c := mk2Compiler(t)
		m := shardedChain("eq1", 3, 256, 512)
		plain, err := c.Compile(ctx, m)
		if err != nil {
			t.Fatal(err)
		}
		se, err := c.CompileSharded(ctx, m, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(se.Stages) != 1 || se.Chips() != 1 {
			t.Fatalf("1-chip sharded compile produced %d stages on %d chips",
				len(se.Stages), se.Chips())
		}
		if se.Stages[0].Model != m {
			t.Fatal("1-chip stage did not compile the original model")
		}
		if !reflect.DeepEqual(se.Stages[0].Schedule, plain.Schedule) {
			t.Fatal("1-chip sharded schedule differs from plain Compile")
		}
		if !reflect.DeepEqual(se.Stages[0].Plans, plain.Plans) {
			t.Fatal("1-chip sharded plans differ from plain Compile")
		}
		rep := se.Simulate()
		if rep.TransferNs != 0 || rep.BubbleNs != 0 {
			t.Fatalf("1-chip simulation charges transfer %g / bubble %g",
				rep.TransferNs, rep.BubbleNs)
		}
		if plainNs := plain.Simulate().TotalNs; rep.TotalNs != plainNs {
			t.Fatalf("1-chip simulated %g, plain %g", rep.TotalNs, plainNs)
		}
		pricedIsSimulated(t, se)
	})

	t.Run("cold sharded compiles carry the stage walls", func(t *testing.T) {
		for _, chips := range []int{1, 2} {
			c, err := New(device.IPUMK2(), DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			sr, err := c.CompileShardedWithResult(ctx, shardedChain("walls", 3, 256, 512), chips)
			if err != nil {
				t.Fatal(err)
			}
			tel := &sr.Telemetry
			if tel.ColdSearch <= 0 || tel.Reconcile <= 0 {
				t.Fatalf("%d chips: ColdSearch = %v, Reconcile = %v, want both > 0", chips, tel.ColdSearch, tel.Reconcile)
			}
			if tel.RouteCold == 0 {
				t.Fatalf("%d chips: cold compile counted no cold route: %+v", chips, tel)
			}
			if sum := tel.StageSum(); sum > tel.Wall {
				t.Fatalf("%d chips: stage sum %v exceeds wall %v", chips, sum, tel.Wall)
			}
			pricedIsSimulated(t, sr.Executable)
		}
	})

	t.Run("multi-chip at least matches single-chip", func(t *testing.T) {
		c := mk2Compiler(t)
		m := shardedChain("eq2", 4, 1024, 2048)
		plain, err := c.Compile(ctx, m)
		if err != nil {
			t.Fatal(err)
		}
		single := plain.Simulate().TotalNs
		sr, err := c.CompileShardedWithResult(ctx, m, 2)
		if err != nil {
			t.Fatal(err)
		}
		se := sr.Executable
		rep := se.Simulate()
		if rep.TotalNs <= 0 || math.IsInf(rep.TotalNs, 0) || math.IsNaN(rep.TotalNs) {
			t.Fatalf("sharded simulation = %g, want finite positive", rep.TotalNs)
		}
		// the whole-model single-chip candidate is always enumerated and
		// selection is by simulated price, so multi-chip can never lose
		if rep.TotalNs > single*(1+1e-9) {
			t.Fatalf("2-chip simulated %g worse than single-chip %g", rep.TotalNs, single)
		}
		if sr.Search.Enumerated < 2 {
			t.Fatalf("outer search enumerated only %d candidates", sr.Search.Enumerated)
		}
		pricedIsSimulated(t, se)
		t.Logf("2-chip: %.3f ms vs single %.3f ms (%d stages, %d chips, %d candidates)",
			rep.LatencyMs(), single/1e6, len(se.Stages), se.Chips(), sr.Search.Enumerated)
	})

	t.Run("model too large for one chip shards finitely", func(t *testing.T) {
		// a generation with starved per-core SRAM: every op fits a chip on
		// its own, but the chain's reconciled resident set (all stages'
		// weights live on-chip at once) does not — only a pipeline cut
		// shrinks the footprint
		spec := device.IPUMK2()
		small := *spec
		small.Name = "MK2-TINY"
		small.Cores = 64
		small.CoreMemBytes = 128 << 10
		c, err := New(&small, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		m := shardedChain("eq3", 4, 512, 1024)
		if _, err := c.Compile(ctx, m); err == nil {
			t.Fatal("oversized model compiled on one starved chip")
		} else {
			var ie *interop.InfeasibleError
			if !errors.As(err, &ie) {
				t.Fatalf("plain compile err = %T %v, want *interop.InfeasibleError", err, err)
			}
		}
		if _, err := c.CompileSharded(ctx, m, 1); err == nil {
			t.Fatal("1-chip sharded compile of oversized model succeeded")
		} else {
			var se *scaleout.InfeasibleError
			if !errors.As(err, &se) {
				t.Fatalf("1-chip sharded err = %T %v, want *scaleout.InfeasibleError", err, err)
			}
		}
		se, err := c.CompileSharded(ctx, m, 4)
		if err != nil {
			t.Fatal(err)
		}
		if len(se.Stages) < 2 {
			t.Fatalf("oversized model sharded into %d stages, want a pipeline cut", len(se.Stages))
		}
		rep := se.Simulate()
		if rep.TotalNs <= 0 || math.IsInf(rep.TotalNs, 0) || math.IsNaN(rep.TotalNs) {
			t.Fatalf("sharded simulation = %g, want finite positive", rep.TotalNs)
		}
		if rep.TransferNs <= 0 {
			t.Fatal("pipeline cut simulated no interconnect transfer")
		}
		pricedIsSimulated(t, se)
		t.Logf("oversized model: %d stages on %d chips, %.3f ms (%.0f%% transfer)",
			len(se.Stages), se.Chips(), rep.LatencyMs(), 100*rep.TransferNs/rep.TotalNs)
	})
}

// TestConcurrentMultiChipSimulate: two executables compiled by one
// V-IPU compiler share their cached plans, and lowering onto a
// multi-chip spec picks each plan's grid order. Simulating both from two
// goroutines must not write to the shared plans (run under -race) and
// must report what a sequential simulation does.
func TestConcurrentMultiChipSimulate(t *testing.T) {
	c, err := New(device.VIPU(2), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var exes [2]*Executable
	for i := range exes {
		if exes[i], err = c.Compile(context.Background(), shardedChain("vipu", 2, 256, 512)); err != nil {
			t.Fatal(err)
		}
	}
	var got [2]float64
	var wg sync.WaitGroup
	for i := range exes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = exes[i].Simulate().TotalNs
		}(i)
	}
	wg.Wait()
	if want := exes[0].Simulate().TotalNs; got[0] != want || got[1] != want {
		t.Fatalf("concurrent simulations %g / %g, sequential %g", got[0], got[1], want)
	}
}

// BenchmarkSharded times CompileSharded on sequential compilers. Its
// cold rows compile OPT-1.3B prefill at batch 8 with 4 microbatches per
// chip count, each on a fresh compiler: stage searches, reconciliation
// and the stage simulations selection reads. Its warm rows repeat one
// ResNet-8 or BERT-8 request on a compiler that ran it once outside the
// timer: every operator search is a cache hit, so what is timed is the
// stage list, the stage compiles and simulations, and the partition
// search.
func BenchmarkSharded(b *testing.B) {
	ctx := context.Background()
	opts := DefaultOptions()
	opts.Workers = 1
	m, err := models.Build("OPT-1.3B-prefill", 8)
	if err != nil {
		b.Fatal(err)
	}
	for _, chips := range []int{1, 2, 4} {
		b.Run(fmt.Sprint(chips), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c, err := New(device.IPUMK2(), opts)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := c.CompileSharded(ctx, m, chips, WithPipelineMicrobatches(4)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, name := range []string{"ResNet", "BERT"} {
		m, err := models.Build(name, 8)
		if err != nil {
			b.Fatal(err)
		}
		for _, chips := range []int{4, 8} {
			for _, micro := range []int{1, 4} {
				b.Run(fmt.Sprintf("warm/%s-8/c%d/m%d", name, chips, micro), func(b *testing.B) {
					c, err := New(device.IPUMK2(), opts)
					if err != nil {
						b.Fatal(err)
					}
					if _, err := c.CompileSharded(ctx, m, chips, WithPipelineMicrobatches(micro)); err != nil {
						b.Fatal(err)
					}
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if _, err := c.CompileSharded(ctx, m, chips, WithPipelineMicrobatches(micro)); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}

func TestShardedMicrobatchesReported(t *testing.T) {
	c := mk2Compiler(t)
	m := shardedChain("mb", 4, 1024, 1024)
	se, err := c.CompileSharded(context.Background(), m, 2, WithPipelineMicrobatches(8))
	if err != nil {
		t.Fatal(err)
	}
	if se.Partition.Microbatches != 8 {
		t.Fatalf("Microbatches = %d, want 8", se.Partition.Microbatches)
	}
	rep := se.Simulate()
	if rep.TotalNs <= 0 {
		t.Fatal("no latency")
	}
}

// TestShardedPricingLeavesRingAlone pins the calibration tap of a
// sharded compile. The partition search simulates every stage its
// space names (thousands at 4 chips), and none of those pricing runs
// may feed the sample ring: a request grows the ring by the search tap
// alone, one sample per Pareto survivor of its cold searches, and a
// later Simulate records nothing.
func TestShardedPricingLeavesRingAlone(t *testing.T) {
	ctx := context.Background()
	ring := costmodel.NewSampleRing(costmodel.DefaultRingSize)
	c, err := New(device.IPUMK2(), DefaultOptions(), WithCalibration(ring, 0))
	if err != nil {
		t.Fatal(err)
	}
	var tapped atomic.Uint64
	tap := c.searcher.SampleTap
	c.searcher.SampleTap = func(task kernel.Task, ns float64) {
		tapped.Add(1)
		tap(task, ns)
	}
	m := models.ResNet(8)
	for _, chips := range []int{2, 4} {
		before, survivors := ring.Total(), tapped.Load()
		se, err := c.CompileSharded(ctx, m, chips)
		if err != nil {
			t.Fatal(err)
		}
		survivors = tapped.Load() - survivors
		if got := ring.Total() - before; got != survivors || survivors == 0 {
			t.Errorf("%d chips: the compile recorded %d samples, its cold searches kept %d Pareto survivors",
				chips, got, survivors)
		}
		before = ring.Total()
		se.Simulate()
		if got := ring.Total() - before; got != 0 {
			t.Errorf("%d chips: Simulate recorded %d samples, want 0", chips, got)
		}
		t.Logf("%d chips: %d samples from cold searches", chips, survivors)
	}
}

func TestShardedRejectsMissingInterconnect(t *testing.T) {
	spec := device.IPUMK2()
	bare := *spec
	bare.Name = "MK2-NOIC"
	bare.Interconnect = device.Interconnect{}
	c, err := New(&bare, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	m := shardedChain("noic", 2, 256, 512)
	if _, err := c.CompileSharded(context.Background(), m, 2); err == nil {
		t.Fatal("2-chip compile without an interconnect descriptor succeeded")
	}
	// one chip needs no fabric
	if _, err := c.CompileSharded(context.Background(), m, 1); err != nil {
		t.Fatal(err)
	}
}

// routes sums the five cache routes: one per operator search answered.
func routes(n search.Counts) int {
	return n.RouteMemory + n.RouteDisk + n.RouteRemote + n.RouteFlightWait + n.RouteCold
}

// countKeys returns how many cache keys the compiler computes while f
// runs.
func countKeys(f func()) int {
	n := 0
	keyHook = func() { n++ }
	defer func() { keyHook = nil }()
	f()
	return n
}

// TestShardedListIsWhatRuns pins a sharded request's listing to the
// searches it runs: on a fresh compiler the searches of its list are
// exactly its cold searches, fused and unfused, every one of them is in
// the memory cache afterwards, and the request answers one route per
// listed search, cold and on a warm repeat. The request keys each
// distinct expression of its stages once.
func TestShardedListIsWhatRuns(t *testing.T) {
	ctx := context.Background()
	for _, fused := range []bool{false, true} {
		for _, name := range []string{"BERT", "OPT-1.3B-prefill"} {
			for _, chips := range []int{2, 4} {
				var copts []CompilerOption
				if fused {
					copts = append(copts, WithFusion(graph.DefaultRules()))
				}
				c, err := New(device.IPUMK2(), DefaultOptions(), copts...)
				if err != nil {
					t.Fatal(err)
				}
				m, err := models.Build(name, 8)
				if err != nil {
					t.Fatal(err)
				}
				var l searchList
				if _, err := c.listSharded(m, scaleout.Config{NChips: chips}, &l); err != nil {
					t.Fatal(err)
				}
				exprs := map[*expr.Expr]bool{}
				for _, p := range l.models {
					for i := range p.m.Ops {
						exprs[p.m.Ops[i].Expr] = true
					}
				}
				what := fmt.Sprintf("%s-8 on %d chips (fused %t)", name, chips, fused)
				listed := len(l.searches)
				for _, temp := range []string{"cold", "warm"} {
					var sr *ShardedResult
					keys := countKeys(func() {
						if sr, err = c.CompileShardedWithResult(ctx, m, chips); err != nil {
							t.Fatal(err)
						}
					})
					tel := sr.Telemetry
					if n := routes(tel.Counts); n != listed {
						t.Errorf("%s, %s: %d routes for %d listed searches", what, temp, n, listed)
					}
					if temp == "cold" && tel.RouteCold != listed {
						t.Errorf("%s: the list names %d searches, the compile ran %d cold", what, listed, tel.RouteCold)
					}
					if keys != len(exprs) {
						t.Errorf("%s, %s: %d Key calls for %d distinct expressions", what, temp, keys, len(exprs))
					}
				}
				for _, u := range l.searches {
					if _, ok := c.PlanCache().Peek(u.key); !ok {
						t.Errorf("%s: listed search %s is not cached after the compile", what, u.e.Name)
					}
				}
				t.Logf("%s: %d stages list %d searches of %d expressions", what, len(l.models), listed, len(exprs))
			}
		}
	}
}

// TestShardedAdmissionPricesStages pins that a sharded request is
// charged for the stage searches it runs, not for its whole model:
// after a 1-chip BERT-8 compile, the 2- and 4-chip requests still run
// cold row-split searches and must be charged for them; identical
// repeats are warm but still assemble their stages one after another,
// and weigh 1.
func TestShardedAdmissionPricesStages(t *testing.T) {
	const capacity = 8
	ctx := context.Background()
	opts := DefaultOptions()
	opts.SharedPool = sema.NewShared(capacity, 4)
	c, err := New(device.IPUMK2(), opts)
	if err != nil {
		t.Fatal(err)
	}
	m := models.BERT(8)
	if _, err := c.CompileShardedWithResult(ctx, m, 1); err != nil {
		t.Fatal(err)
	}
	for i, chips := range []int{2, 4, 2, 4} {
		repeat := i >= 2
		var l searchList
		if _, err := c.listSharded(m, scaleout.Config{NChips: chips}, &l); err != nil {
			t.Fatal(err)
		}
		want := c.estimate(&l).Weight(capacity)
		sr, err := c.CompileShardedWithResult(ctx, m, chips)
		if err != nil {
			t.Fatal(err)
		}
		tel := sr.Telemetry
		switch {
		case tel.AdmissionWeight != want:
			t.Errorf("%d chips (repeat %t): charged %d slots, its stage list weighs %d", chips, repeat, tel.AdmissionWeight, want)
		case !repeat && want == 0:
			t.Errorf("%d chips: admitted at weight 0 with %d cold searches", chips, tel.RouteCold)
		case repeat && want != 1:
			t.Errorf("%d chips repeated: charged %d slots, want 1", chips, want)
		}
	}
	if n := opts.SharedPool.InUse(); n != 0 {
		t.Fatalf("%d slots leaked", n)
	}
}
