package search

import (
	"context"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/dtype"
	"repro/internal/expr"
	"repro/internal/graph"
	"repro/internal/kernel"
	"repro/internal/models"
	"repro/internal/plancache"
)

// benchColdOp is the cold-search workload: the BERT-16 FFN MatMul the
// paper's Fig 17/18 study (16·128 × 1024 × 4096).
func benchColdOp() *expr.Expr {
	return expr.MatMul("mm-bench", 16*128, 1024, 4096, dtype.FP16)
}

// benchFusedOp is benchColdOp with a bias+activation epilogue folded in
// — the composed expression the operator-fusion pass hands the search.
// One cold search prices the whole chain (the epilogue ALU work rides
// the matmul cost model), replacing three separate searches.
func benchFusedOp() *expr.Expr {
	mm := benchColdOp()
	f, err := expr.ComposeEpilogue(mm, expr.EltwiseBinary("bias", 16*128, 4096, dtype.FP16), 0)
	if err == nil {
		f, err = expr.ComposeEpilogue(f, expr.Elementwise("act", 16*128, 4096, 8, dtype.FP16), 0)
	}
	if err != nil {
		panic(err)
	}
	return f
}

// BenchmarkColdSearch measures one full cold enumeration per iteration
// (searchOp bypasses every cache layer) of the one engine, on inputs
// that differ:
//
//	subtree   — the benchColdOp matmul on IPUMK2
//	telemetry — the same under an attached Collector, as every t10
//	            request searches
//	fused     — the composed matmul+bias+activation expression the
//	            fusion pass emits: one search where the unfused pipeline
//	            runs three
//	calibrated — pricing with a measurement-refit cost model (see
//	            TestColdSearchPricedCeiling)
//	bigcore   — the SP2-STRESS generation (147,456 cores): the
//	            partition-count stress case, where the factor enumeration
//	            behind fop grows with the core count (see
//	            TestBigCoreColdSearchCeiling)
//	conv      — the ResNet-8 3×3 convolution s2a2 on a fresh Searcher
//	            per iteration, so its temporal-factor sets are built cold
//	            as on a fresh compiler: compound dims, the window cap and
//	            4-dim weight sets under the 64-combo cap (the other
//	            variants are matmuls searched on a warm memo)
//
// The tracked trajectory is the repo benchmark (bench/); this one is the
// race-detector smoke of the parallel engine (make bench-race).
func BenchmarkColdSearch(b *testing.B) {
	variants := []struct {
		name       string
		telemetry  bool
		fused      bool
		calibrated bool
		bigcore    bool
		conv       bool
	}{
		{name: "subtree"},
		{name: "telemetry", telemetry: true},
		{name: "fused", fused: true},
		{name: "calibrated", calibrated: true},
		{name: "bigcore", bigcore: true},
		{name: "conv", conv: true},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			spec := device.IPUMK2()
			if v.bigcore {
				spec = device.SP2Stress()
			}
			cm := testCM()
			if v.calibrated {
				cm = calibratedCM(b, spec)
			}
			s := New(spec, cm, DefaultConstraints(), core.DefaultConfig())
			e := benchColdOp()
			if v.fused {
				e = benchFusedOp()
				s.FusionRules = "epilogue+contraction"
			}
			if v.conv {
				e = opNamed(b, models.ResNet(8), "s2a2")
			}
			ctx := context.Background()
			if v.telemetry {
				ctx = WithCollector(ctx, new(Collector))
			}
			b.ResetTimer()
			var r *Result
			for i := 0; i < b.N; i++ {
				if v.conv {
					s = New(spec, cm, DefaultConstraints(), core.DefaultConfig())
				}
				var err error
				r, err = s.searchOp(ctx, e)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(r.Spaces.Priced), "priced/op")
			b.ReportMetric(float64(r.Spaces.Pruned), "pruned/op")
			b.ReportMetric(float64(r.Spaces.CutLeaves), "cut/op")
		})
	}
}

// TestBigCoreColdSearchCeiling pins the stress-generation cold search:
// on SP2-STRESS (147,456 cores — two orders of magnitude more
// partition factors than MK2) the sequential engine must stay within a
// pinned wall-clock and priced-candidate ceiling. It measures 96
// priced (233 while a hand-derived leaf bound let leaves through that
// their estimate placed off the frontier); the priced ceiling is ≈1.1×
// that, a count, and the wall ceiling is generous (5s) so only an
// algorithmic regression — the factor enumeration going super-linear
// in the core count, the subtree cuts losing their grip — trips it,
// not a slow runner.
func TestBigCoreColdSearchCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("full-device cold search on the stress generation")
	}
	const (
		wallCeiling   = 5 * time.Second
		pricedCeiling = 98
	)
	s := New(device.SP2Stress(), testCM(), DefaultConstraints(), core.DefaultConfig())
	s.Workers = 1 // sequential: the priced count is schedule-independent and exact
	start := time.Now()
	r, err := s.searchOp(context.Background(), benchColdOp())
	if err != nil {
		t.Fatal(err)
	}
	wall := time.Since(start)
	if wall > wallCeiling {
		t.Errorf("bigcore cold search took %v, ceiling %v", wall, wallCeiling)
	}
	if r.Spaces.Priced > pricedCeiling {
		t.Errorf("bigcore cold search priced %d candidates, ceiling %d", r.Spaces.Priced, pricedCeiling)
	}
	if len(r.Pareto) == 0 {
		t.Fatal("bigcore cold search found no plans")
	}
	t.Logf("bigcore: %v wall, %d priced, %d pareto", wall, r.Spaces.Priced, len(r.Pareto))
}

// TestConvFinishPerFilteredCeiling is the deterministic work guard of
// the prefix-level padding filter: on the ResNet-8 convolutions at
// IPUMK2 the sketch may finish hardly more leaves than pass the
// rule-based filters (plus those the core-memory check then drops).
// Deciding padding only after Finish ran ~10× that (3×3 window axes
// take few temporal factors without over-padding); a count, so a
// regression is distinguishable from box noise. The per-Fop live lists
// behind it must not cost an allocation per Fop once warm.
func TestConvFinishPerFilteredCeiling(t *testing.T) {
	s := newSearcher()
	s.Workers = 1 // sequential: the counts are exact and repeatable
	seen := make(map[string]bool)
	var last *expr.Expr
	for _, op := range models.ResNet(8).Ops {
		e := op.Expr
		if e.Kind != expr.KindConv || seen[e.Signature()] {
			continue
		}
		seen[e.Signature()] = true
		r, err := s.searchOp(context.Background(), e)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		ceiling := 1.1*float64(r.Spaces.Filtered) + float64(r.memRejects)
		if float64(r.finished) > ceiling {
			t.Errorf("%s: finished %d leaves for %d filtered + %d memory rejects (ceiling %.0f)",
				e.Name, r.finished, r.Spaces.Filtered, r.memRejects, ceiling)
		}
		t.Logf("%s: finished %d, filtered %d, memory rejects %d", e.Name, r.finished, r.Spaces.Filtered, r.memRejects)
		last = e
	}
	if len(seen) < 10 {
		t.Fatalf("only %d distinct ResNet convolutions searched", len(seen))
	}

	// One warm worker re-processing a Fop against a frontier entry at
	// zero time and the Fop's smallest leaf memory: the Fop-level memory
	// bound stays below it, so the per-Fop setup, the live lists and the
	// recursion down to the last-input screen all run, and every leaf
	// below is cut or pruned — nothing is priced, so all of it is reused
	// scratch (the screen's lives on the sketch).
	fops := s.enumerateFops(last)
	w := newSearchWorker(s, last, s.CM.Resolve(last.Name, last.Kind), nil)
	fop := fops[len(fops)/2]
	var open fopShard
	w.processFop(fop, &open, &pruneFrontier{})
	if len(open.cands) == 0 {
		t.Fatalf("Fop %v priced nothing against an empty frontier", fop)
	}
	minMem := open.cands[0].Est.MemPerCore
	for _, c := range open.cands {
		minMem = min(minMem, c.Est.MemPerCore)
	}
	pf := &pruneFrontier{}
	pf.add(Candidate{Est: core.Estimate{MemPerCore: minMem}})
	var sh fopShard
	if allocs := testing.AllocsPerRun(10, func() {
		sh = fopShard{}
		w.processFop(fop, &sh, pf)
	}); allocs != 0 {
		t.Errorf("a warm processFop allocates %.0f times, want 0", allocs)
	}
	if sh.screened == 0 || len(sh.cands) != 0 || sh.pruned+sh.cutLeaves == 0 {
		t.Errorf("alloc probe stopped at the Fop-level cut or priced a leaf: %+v", sh)
	}
	t.Logf("alloc probe on Fop %v: screened %d, finished %d, pruned %d, cut %d subtrees / %d leaves",
		fop, sh.screened, sh.finished, sh.pruned, sh.cutSubtrees, sh.cutLeaves)
}

// The leaf path's count guard: one cold pass over the distinct
// operators of the benchmark's five models (IPUMK2, batch 8,
// Workers=1) finishes finishedMeasured leaves; before the last-input
// screen it finished 79 401, with the per-step floor alone 108 619.
// While the frontier was seeded before the workers started it finished
// 11 259, but priced 1 639 seeds besides: 12 898 candidates in all,
// against 13 119 leaves once it went. Deleting the per-step
// (MonotoneLB) compute floor, so the work floor is the bounds' only
// one, added 8: ResNet-8's maxpool finishes 10 leaves instead of 2.
// The Pareto sets must not move at all. Of the finished leaves, all
// filtered, pricedMeasured are kept for the merge and prunedMeasured
// dropped, as the fastest-first re-check of each shard's leaves kept
// them before each shard wrote its leaves to the frontier in one go.
// truncatedMeasured is the capped temporal-factor enumerations the
// pass counts, one per Fop per input tensor whose set the cap cut.
const (
	finishedMeasured  = 13127
	paretoMeasured    = 584
	pricedMeasured    = 1673
	prunedMeasured    = 11454
	truncatedMeasured = 2468
)

// TestColdSearchFinishedCeiling pins the leaves a cold M5 pass finishes
// — the work the prefix bounds' compute floor and the last-input
// screen exist to cut — at 1.05 × the measured count, the summed
// Pareto sizes at the count measured before the work floor, and the
// summed Priced / Pruned split exactly: which leaves a shard keeps for
// the merge, and the summed TruncatedFtCombos exactly: every shard
// counts its Fop's capped sets before any cut. Counts, so they read the
// same on a noisy runner.
func TestColdSearchFinishedCeiling(t *testing.T) {
	s := newSearcher()
	s.Workers = 1 // sequential: the counts are exact and repeatable
	seen := make(map[plancache.Key]bool)
	finished, pareto, priced, pruned, truncated := 0, 0, 0, 0, 0
	for _, m := range m5(t, 8) {
		mFinished := 0
		for _, op := range m.Ops {
			e := op.Expr
			if k := s.Key(e); !seen[k] {
				seen[k] = true
				r, err := s.searchOp(context.Background(), e)
				if err != nil {
					t.Fatalf("%s/%s: %v", m.Name, e.Name, err)
				}
				mFinished += r.finished
				pareto += len(r.Pareto)
				priced += r.Spaces.Priced
				pruned += r.Spaces.Pruned
				truncated += r.Spaces.TruncatedFtCombos
			}
		}
		t.Logf("%s: finished %d", m.Name, mFinished)
		finished += mFinished
	}
	t.Logf("cold M5 pass over %d distinct ops: finished %d, priced %d, pruned %d, pareto %d, truncated ft %d",
		len(seen), finished, priced, pruned, pareto, truncated)
	if ceiling := 1.05 * finishedMeasured; float64(finished) > ceiling {
		t.Errorf("finished %d leaves, ceiling %.0f (1.05 × %d)", finished, ceiling, finishedMeasured)
	}
	if pareto != paretoMeasured {
		t.Errorf("Pareto sizes sum to %d, want %d", pareto, paretoMeasured)
	}
	if priced != pricedMeasured || pruned != prunedMeasured {
		t.Errorf("priced %d / pruned %d, want %d / %d", priced, pruned, pricedMeasured, prunedMeasured)
	}
	if truncated != truncatedMeasured {
		t.Errorf("truncated ft combos sum to %d, want %d", truncated, truncatedMeasured)
	}
}

// TestColdSearchAllocCeiling is the count-based guard of leaf pricing:
// a cold search prices its survivors on the sketch and builds a
// core.Plan only for the Pareto set, and the fitted cost model predicts
// without allocating, so a search's allocations follow its per-Fop
// scratch and Pareto set, not its priced count. The ceilings are 1.25×
// the counts measured at Workers=1 on the ResNet-8 3×3 convolution and
// the BERT-8 QKV matmul (956 / 999; 1 614 / 1 072 before the Fop list,
// the f_t vectors and each shard's candidates moved onto shared or
// reused backing arrays); a Plan built per priced leaf or a feature
// slice per prediction reads as a count over the ceiling, not as box
// noise.
func TestColdSearchAllocCeiling(t *testing.T) {
	cm := testCM()
	for _, kind := range cm.Kinds() {
		pred := cm.Resolve("", kind)
		task := kernel.Task{Kind: kind, M: 64, N: 32, K: 96, KH: 3, KW: 3, Elems: 2048, InBytes: 1 << 14, OutBytes: 1 << 12}
		if allocs := testing.AllocsPerRun(100, func() { pred.Predict(task) }); allocs != 0 {
			t.Errorf("%v: Model.Predict allocates %.0f times, want 0", kind, allocs)
		}
	}
	for _, tc := range []struct {
		model   *graph.Model
		op      string
		ceiling float64
	}{
		{models.ResNet(8), "s2a2", 1.25 * 956},
		{models.BERT(8), "qkv", 1.25 * 999},
	} {
		e := opNamed(t, tc.model, tc.op)
		s := newSearcher()
		s.Workers = 1
		var r *Result
		var err error
		allocs := testing.AllocsPerRun(3, func() { r, err = s.searchOp(context.Background(), e) })
		if err != nil {
			t.Fatalf("%s: %v", tc.op, err)
		}
		if allocs > tc.ceiling {
			t.Errorf("%s: a cold search allocates %.0f times, ceiling %.0f", tc.op, allocs, tc.ceiling)
		}
		t.Logf("%s: %.0f allocs per cold search (%d priced, %d pareto)", tc.op, allocs, r.Spaces.Priced, r.Spaces.Optimized)
	}
}

// opNamed returns the expression of m's operator named name.
func opNamed(tb testing.TB, m *graph.Model, name string) *expr.Expr {
	tb.Helper()
	for _, op := range m.Ops {
		if op.Name == name {
			return op.Expr
		}
	}
	tb.Fatalf("%s has no operator %s", m.Name, name)
	return nil
}
