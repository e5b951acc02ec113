package search

import (
	"context"
	"encoding/json"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/dtype"
	"repro/internal/expr"
	"repro/internal/graph"
	"repro/internal/kernel"
	"repro/internal/models"
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
// (searchOp bypasses every cache layer) in four configurations:
//
//	seq       — Workers=1, pruning off: the pre-optimization reference path
//	par       — Workers=GOMAXPROCS, pruning off: sharding alone
//	pruned    — leaf-level bound pruning only (the PR2 engine shape)
//	subtree   — subtree cuts + best-first shard order: the default engine
//	telemetry — the default engine under an attached Collector (no debug
//	            trace), i.e. the production-safe telemetry level: the
//	            acceptance gate holds it within 5% of subtree
//	fused     — the default engine searching the composed
//	            matmul+bias+activation expression the fusion pass emits:
//	            one search where the unfused pipeline runs three
//	calibrated — the default engine pricing with a measurement-refit
//	            cost model (and its calibrated floor): tracks how far
//	            calibration closes the priced-candidates gap to the 216
//	            offline ceiling (see TestColdSearchPricedCeiling)
//	bigcore   — the default engine on the SP2-STRESS generation
//	            (147,456 cores): the partition-count stress case, where
//	            the factor enumeration behind fop grows with the core
//	            count (see TestBigCoreColdSearchCeiling)
//
// All variants select bit-identical Pareto plans (TestSearchEquivalence).
// With BENCH_SEARCH_JSON set, each variant records its numbers into that
// file so the perf trajectory is tracked across PRs (make bench-search).
func BenchmarkColdSearch(b *testing.B) {
	variants := []struct {
		name       string
		workers    int
		noPrune    bool
		noSubtree  bool
		telemetry  bool
		fused      bool
		calibrated bool
		bigcore    bool
	}{
		{name: "seq", workers: 1, noPrune: true},
		{name: "par", noPrune: true},
		{name: "pruned", noSubtree: true},
		{name: "subtree"},
		{name: "telemetry", telemetry: true},
		{name: "fused", fused: true},
		{name: "calibrated", calibrated: true},
		{name: "bigcore", bigcore: true},
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
			s.Workers, s.NoPrune, s.NoSubtree = v.workers, v.noPrune, v.noSubtree
			e := benchColdOp()
			if v.fused {
				e = benchFusedOp()
				s.FusionRules = "epilogue+contraction"
			}
			ctx := context.Background()
			if v.telemetry {
				ctx = WithCollector(ctx, NewCollector(false))
			}
			b.ResetTimer()
			var r *Result
			for i := 0; i < b.N; i++ {
				var err error
				r, err = s.searchOp(ctx, e)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(r.Spaces.Priced), "priced/op")
			b.ReportMetric(float64(r.Spaces.Seeded), "seeded/op")
			b.ReportMetric(float64(r.Spaces.Pruned), "pruned/op")
			b.ReportMetric(float64(r.Spaces.CutLeaves), "cut/op")
			recordBench(b, v.name, r)
		})
	}
}

// TestBigCoreColdSearchCeiling pins the stress-generation cold search:
// on SP2-STRESS (147,456 cores — two orders of magnitude more
// partition factors than MK2) the sequential engine must stay within a
// pinned wall-clock and priced-candidate ceiling. The seed measures
// ~37ms / 504 priced; the ceilings are generous (5s / 560) so only an
// algorithmic regression — the factor enumeration going super-linear
// in the core count, the subtree cuts losing their grip — trips them,
// not a slow runner.
func TestBigCoreColdSearchCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("full-device cold search on the stress generation")
	}
	const (
		wallCeiling   = 5 * time.Second
		pricedCeiling = 560
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

	// One warm worker re-processing a Fop: with every leaf dominated by
	// the frontier nothing is priced, so what is left is the per-Fop
	// setup, the live lists and the recursion — all reused scratch.
	s.NoSubtree = true // reach the leaves instead of cutting the Fop
	fops := s.enumerateFops(last)
	table, _ := s.buildFtTable(last, fops)
	w := newSearchWorker(s, last, s.CM.Resolve(last.Name, last.Kind), table, nil)
	w.sketch.PaddingMin = s.Cons.PaddingMin
	pf := &pruneFrontier{}
	pf.add(Candidate{}) // zero memory, zero time: dominates everything
	var sh fopShard
	if allocs := testing.AllocsPerRun(10, func() {
		sh = fopShard{}
		w.processFop(fops[len(fops)/2], &sh, pf)
	}); allocs != 0 {
		t.Errorf("a warm processFop allocates %.0f times, want 0", allocs)
	}
	if sh.pruned == 0 || sh.pruned != sh.filtered {
		t.Errorf("alloc probe visited no leaves: %+v", sh)
	}
}

// TestColdSearchAllocCeiling is the count-based guard of leaf pricing:
// a cold search prices its survivors on the sketch and builds a
// core.Plan only for the Pareto set, and the fitted cost model predicts
// without allocating, so a search's allocations follow its per-Fop
// scratch and Pareto set, not its priced count. The ceilings are 1.25×
// the counts measured at Workers=1 on the ResNet-8 3×3 convolution and
// the BERT-8 QKV matmul; a Plan built per priced leaf or a feature
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
		{models.ResNet(8), "s2a2", 1.25 * 4931},
		{models.BERT(8), "qkv", 1.25 * 1883},
	} {
		var e *expr.Expr
		for _, op := range tc.model.Ops {
			if op.Name == tc.op {
				e = op.Expr
			}
		}
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

// recordBench merges one variant's numbers into the JSON perf log named
// by BENCH_SEARCH_JSON (no-op when unset). Unknown keys in an existing
// file — e.g. hand-recorded history — are preserved.
func recordBench(b *testing.B, variant string, r *Result) {
	path := os.Getenv("BENCH_SEARCH_JSON")
	if path == "" {
		return
	}
	doc := map[string]any{}
	if blob, err := os.ReadFile(path); err == nil {
		_ = json.Unmarshal(blob, &doc)
	}
	cold, _ := doc["cold_search"].(map[string]any)
	if cold == nil {
		cold = map[string]any{}
		doc["cold_search"] = cold
	}
	cold[variant] = map[string]any{
		"ns_per_op":    float64(b.Elapsed().Nanoseconds()) / float64(b.N),
		"priced":       r.Spaces.Priced,
		"seeded":       r.Spaces.Seeded,
		"pruned":       r.Spaces.Pruned,
		"cut_subtrees": r.Spaces.CutSubtrees,
		"cut_leaves":   r.Spaces.CutLeaves,
		"filtered":     r.Spaces.Filtered,
		"pareto":       r.Spaces.Optimized,
	}
	doc["gomaxprocs"] = runtime.GOMAXPROCS(0)
	blob, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		b.Fatalf("encode %s: %v", path, err)
	}
	if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
		b.Fatalf("write %s: %v", path, err)
	}
}
