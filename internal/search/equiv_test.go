package search

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/device"
	"repro/internal/dtype"
	"repro/internal/expr"
	"repro/internal/plancache"
)

// paretoFront keeps the candidates on the memory/time Pareto frontier:
// each kept plan is faster than everything with the same or less memory
// (§4.3.1). The result is sorted by memory ascending. This is the batch
// reference the streaming Frontier is property-tested against.
func paretoFront(all []Candidate) []Candidate {
	sorted := append([]Candidate(nil), all...)
	// stable: exact (mem, time) ties resolve by enumeration order, so
	// the chosen plans are reproducible across runs
	sort.SliceStable(sorted, func(i, j int) bool {
		if sorted[i].Est.MemPerCore != sorted[j].Est.MemPerCore {
			return sorted[i].Est.MemPerCore < sorted[j].Est.MemPerCore
		}
		return sorted[i].Est.TotalNs < sorted[j].Est.TotalNs
	})
	var front []Candidate
	best := 0.0
	for _, c := range sorted {
		if len(front) == 0 || c.Est.TotalNs < best {
			if len(front) > 0 && front[len(front)-1].Est.MemPerCore == c.Est.MemPerCore {
				front[len(front)-1] = c
			} else {
				front = append(front, c)
			}
			best = c.Est.TotalNs
		}
	}
	return front
}

func sameCandidate(a, b *Candidate) bool {
	if !reflect.DeepEqual(a.Plan.Fop, b.Plan.Fop) {
		return false
	}
	for ti := range a.Plan.Tensors {
		if !reflect.DeepEqual(a.Plan.Tensors[ti].Ft, b.Plan.Tensors[ti].Ft) {
			return false
		}
	}
	return a.Est == b.Est
}

// checkReference is the direct check of the oracle's accounting: every
// filtered plan priced, nothing pruned, seeded or cut — so its Filtered
// is the exact rule-based count the engine's is measured against.
func checkReference(t *testing.T, name string, ref *Result) {
	t.Helper()
	sp := ref.Spaces
	if sp.Optimized != len(ref.Pareto) || sp.Filtered < sp.Optimized {
		t.Fatalf("%s: reference spaces %+v for %d Pareto plans", name, sp, len(ref.Pareto))
	}
	if sp.Priced != sp.Filtered || sp.Pruned != 0 || sp.Seeded != 0 || sp.CutSubtrees != 0 || sp.CutLeaves != 0 {
		t.Errorf("%s: reference spaces %+v, want every filtered plan priced and nothing pruned, seeded or cut", name, sp)
	}
}

// checkEngine asserts one engine result against the reference: the same
// Pareto plans and estimates, bit for bit, and Spaces accounting
// consistent with the exact count.
func checkEngine(t *testing.T, name string, r, ref *Result) {
	t.Helper()
	// subtree cuts skip leaves before the filters run, so Filtered
	// undercounts by at most the cut leaves (and is exact without cuts)
	want := ref.Spaces.Filtered
	if r.Spaces.Filtered > want {
		t.Errorf("%s: filtered = %d exceeds reference %d", name, r.Spaces.Filtered, want)
	}
	if missing := want - r.Spaces.Filtered; missing > r.Spaces.CutLeaves {
		t.Errorf("%s: %d filtered candidates unaccounted for (cut leaves %d)", name, missing, r.Spaces.CutLeaves)
	}
	if r.Spaces.Priced+r.Spaces.Pruned != r.Spaces.Filtered {
		t.Errorf("%s: priced %d + pruned %d != filtered %d",
			name, r.Spaces.Priced, r.Spaces.Pruned, r.Spaces.Filtered)
	}
	if r.Spaces.TruncatedFtCombos != ref.Spaces.TruncatedFtCombos {
		t.Errorf("%s: truncated ft = %d, reference %d (must not depend on schedule)",
			name, r.Spaces.TruncatedFtCombos, ref.Spaces.TruncatedFtCombos)
	}
	if len(r.Pareto) != len(ref.Pareto) {
		t.Fatalf("%s: pareto size = %d, want %d", name, len(r.Pareto), len(ref.Pareto))
	}
	for i := range ref.Pareto {
		if !sameCandidate(&r.Pareto[i], &ref.Pareto[i]) {
			t.Fatalf("%s: pareto[%d] differs:\n got Fop=%v est=%+v\nwant Fop=%v est=%+v",
				name, i, r.Pareto[i].Plan.Fop, r.Pareto[i].Est, ref.Pareto[i].Plan.Fop, ref.Pareto[i].Est)
		}
	}
}

// TestSearchEquivalence proves the parallel, subtree-pruned, best-first
// cold search returns byte-identical Pareto sets (plans and estimates)
// to the brute-force sequential Searcher.Reference, across operators,
// worker counts, telemetry settings and constraint settings.
func TestSearchEquivalence(t *testing.T) {
	spec := device.IPUMK2().Subset(64)
	ops := []*expr.Expr{
		expr.MatMul("mm", 256, 256, 256, dtype.FP16),
		expr.MatMul("mm-prime", 509, 512, 512, dtype.FP16),
		expr.Conv2D("conv", 4, 16, 16, 14, 14, 3, 3, 1, dtype.FP16),
		// ResNet-shaped: 7×7 stride-2 stem, 3×3 stride-2, 1×1 downsample —
		// window axes are where temporal factors over-pad, the filter the
		// engine decides on the prefix and the reference at the leaf
		expr.Conv2D("conv-stem", 2, 16, 3, 16, 16, 7, 7, 2, dtype.FP16),
		expr.Conv2D("conv-s2", 4, 32, 16, 7, 7, 3, 3, 2, dtype.FP16),
		expr.Conv2D("conv-down", 4, 32, 16, 7, 7, 1, 1, 2, dtype.FP16),
		expr.GatherOp("emb", 128, 1000, 64, dtype.FP16),
		expr.ReduceSum("sum", 64, 256, dtype.FP16),
	}
	settings := []Constraints{
		DefaultConstraints(),
		{ParallelismMin: 0.5, PaddingMin: 0.8, MaxFtCombos: 16},
		{ParallelismMin: 0.95, PaddingMin: 0.95, MaxFtCombos: 8},
	}
	for _, e := range ops {
		for ci, cons := range settings {
			s := New(spec, testCM(), cons, core.DefaultConfig())
			ref, err := s.Reference(e)
			if err != nil {
				t.Fatalf("%s cons%d: reference: %v", e.Name, ci, err)
			}
			checkReference(t, fmt.Sprintf("%s/cons%d", e.Name, ci), ref)
			for _, workers := range []int{1, 4} {
				// telemetry collection must never change plan selection
				for _, telemetry := range []bool{false, true} {
					name := fmt.Sprintf("%s/cons%d/w%d/tel=%t", e.Name, ci, workers, telemetry)
					s.Workers = workers
					ctx := context.Background()
					if telemetry {
						ctx = WithCollector(ctx, new(Collector))
					}
					r, err := s.searchOp(ctx, e)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					checkEngine(t, name, r, ref)
				}
			}
		}
	}
}

// TestSearchEquivalenceWorkFloorKinds carries TestSearchEquivalence and
// TestSearchEquivalenceCalibrated to the kinds the prefix work floor
// bounds that those lack: a batched matmul, a pooling window, an
// elementwise map and a chained contraction. Each must match
// Searcher.Reference bit for bit at workers {1, 4} × telemetry
// {off, on}, priced by the shipped fit and by a calibrated one.
func TestSearchEquivalenceWorkFloorKinds(t *testing.T) {
	spec := device.IPUMK2().Subset(64)
	chained, err := expr.ComposeContraction(expr.MatMul("qk", 64, 32, 64, dtype.FP16),
		expr.MatMul("av", 64, 64, 32, dtype.FP16), 0)
	if err != nil {
		t.Fatal(err)
	}
	ops := []*expr.Expr{
		expr.BatchMatMul("bmm", 4, 64, 32, 64, dtype.FP16),
		expr.Pool2D("pool", 4, 16, 14, 14, 3, 3, 2, dtype.FP16),
		expr.Elementwise("act", 256, 512, 8, dtype.FP16),
		chained,
	}
	for _, fit := range []struct {
		name string
		cm   *costmodel.Set
	}{{"shipped", testCM()}, {"calibrated", calibratedCM(t, spec)}} {
		for _, e := range ops {
			s := New(spec, fit.cm, DefaultConstraints(), core.DefaultConfig())
			ref, err := s.Reference(e)
			if err != nil {
				t.Fatalf("%s/%s: reference: %v", fit.name, e.Name, err)
			}
			checkReference(t, fit.name+"/"+e.Name, ref)
			for _, workers := range []int{1, 4} {
				for _, telemetry := range []bool{false, true} {
					name := fmt.Sprintf("%s/%s/w%d/tel=%t", fit.name, e.Name, workers, telemetry)
					s.Workers = workers
					ctx := context.Background()
					if telemetry {
						ctx = WithCollector(ctx, new(Collector))
					}
					r, err := s.searchOp(ctx, e)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					checkEngine(t, name, r, ref)
				}
			}
		}
	}
}

// TestFrontierMatchesParetoFront streams random candidate sets — with
// deliberate exact (mem, time) ties — through the incremental frontier
// and checks the result against the batch reference, including the
// first-enumerated-wins tie-break.
func TestFrontierMatchesParetoFront(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(60)
		all := make([]Candidate, n)
		for i := range all {
			all[i].Est.MemPerCore = int64(100 + rng.Intn(8))
			all[i].Est.TotalNs = float64(10 + rng.Intn(8))
			all[i].Est.Steps = i // identity tag: enumeration index
		}
		var f Frontier
		for i := range all {
			f.Insert(all[i])
		}
		want := paretoFront(all)
		got := f.Candidates()
		if len(got) != len(want) {
			t.Fatalf("trial %d: frontier size %d, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i].Est != want[i].Est {
				t.Fatalf("trial %d: entry %d = %+v, want %+v (tags are enum indices)",
					trial, i, got[i].Est, want[i].Est)
			}
		}
	}
}

// TestFrontierDominatedIsSafe checks the pruning predicate: whenever
// Dominated(mem, lb) holds for an admissible bound lb ≤ t, inserting the
// actual (mem, t) candidate would have been rejected.
func TestFrontierDominatedIsSafe(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		var f Frontier
		for i := 0; i < 30; i++ {
			var c Candidate
			c.Est.MemPerCore = int64(100 + rng.Intn(10))
			c.Est.TotalNs = float64(10 + rng.Intn(10))
			mem, tm := c.Est.MemPerCore, c.Est.TotalNs
			lb := tm - float64(rng.Intn(3)) // admissible: lb ≤ t
			if f.Dominated(mem, lb) {
				before := append([]Candidate(nil), f.Candidates()...)
				if f.Insert(c) {
					t.Fatalf("trial %d: Dominated(%d, %g) but Insert(%d, %g) survived",
						trial, mem, lb, mem, tm)
				}
				if !reflect.DeepEqual(before, f.Candidates()) {
					t.Fatalf("trial %d: rejected insert mutated the frontier", trial)
				}
			} else {
				f.Insert(c)
			}
		}
	}
}

// TestShardEndKeep pins a shard's one frontier write (pruneFrontier.add
// as processFop calls it): the shard's candidates go into the frontier
// in enumeration order, and the ones the updated frontier dominates
// under leafBound leave the shard, with the survivors' order kept. A
// leaf dominated only by a later sibling is dropped, and so is a leaf
// a later one at the same memory beats. A leaf that merely ties a
// frontier entry is kept, since the enumeration-order merge decides
// that tie. A shard whose candidates all fail to enter the frontier
// must leave the published snapshot as it was and allocate nothing.
func TestShardEndKeep(t *testing.T) {
	cand := func(tag int, mem int64, ns float64) Candidate {
		return Candidate{Est: core.Estimate{Steps: tag, MemPerCore: mem, TotalNs: ns}}
	}
	tags := func(cs []Candidate) []int {
		var out []int
		for _, c := range cs {
			out = append(out, c.Est.Steps)
		}
		return out
	}
	pf := &pruneFrontier{}
	pf.add(cand(-1, 100, 50))
	before := pf.snap.Load()

	sh := fopShard{filtered: 4, cands: []Candidate{
		cand(0, 300, 45), // beats the frontier, dominated by tags 2 and 3
		cand(1, 100, 50), // the frontier entry's exact twin
		cand(2, 250, 40), // tag 3 has its memory and is faster
		cand(3, 250, 30),
	}}
	var pruned int
	sh.cands, pruned = pf.add(sh.cands...)
	sh.pruned += pruned
	if got := tags(sh.cands); !slices.Equal(got, []int{1, 3}) {
		t.Errorf("kept tags %v, want [1 3] in enumeration order", got)
	}
	if sh.pruned != 2 {
		t.Errorf("pruned %d, want 2", sh.pruned)
	}
	if priced := len(sh.cands); priced+sh.pruned != sh.filtered {
		t.Errorf("priced %d + pruned %d != filtered %d", priced, sh.pruned, sh.filtered)
	}
	after := pf.snap.Load()
	if after == before {
		t.Fatal("a shard with a candidate that enters the frontier published nothing")
	}
	// the earlier entry wins the exact tie; tag 3 displaced tags 0 and 2
	if got := tags(after.Candidates()); !slices.Equal(got, []int{-1, 3}) {
		t.Errorf("frontier tags %v, want [-1 3]", got)
	}

	// every candidate ties or trails the frontier: no copy, no store
	in := []Candidate{cand(4, 100, 50), cand(5, 150, 60), cand(6, 400, 35)}
	buf := make([]Candidate, len(in))
	var kept []Candidate
	allocs := testing.AllocsPerRun(10, func() {
		copy(buf, in)
		kept, pruned = pf.add(buf...)
	})
	if allocs != 0 {
		t.Errorf("an all-dominated shard's write allocates %.0f times, want 0", allocs)
	}
	if pf.snap.Load() != after {
		t.Error("an all-dominated shard replaced the snapshot")
	}
	if got := tags(kept); !slices.Equal(got, []int{4}) || pruned != 2 {
		t.Errorf("all-dominated shard kept %v and pruned %d, want [4] and 2", got, pruned)
	}
}

// TestFrontierTieBreakDeterministicAcrossWorkers seeds candidate sets
// with exact (MemPerCore, TotalNs) duplicates, runs them through the
// engine's parallel protocol — shards processed in scrambled order by
// concurrent workers against the shared advisory frontier, each ending
// in one frontier write that drops what the updated frontier dominates,
// survivors merged in enumeration order — and checks the selected candidates
// (identified by their enumeration tag) match the sequential reference
// at every worker count: an exact tie is always won by the
// first-enumerated candidate, never by whoever priced first.
func TestFrontierTieBreakDeterministicAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 60; trial++ {
		n := 20 + rng.Intn(80)
		all := make([]Candidate, n)
		for i := range all {
			all[i].Est.MemPerCore = int64(100 + rng.Intn(6))
			all[i].Est.TotalNs = float64(10 + rng.Intn(6))
			all[i].Est.Steps = i // identity tag: enumeration index
		}
		// seed exact duplicates across the enumeration
		for k := 0; k < n/3; k++ {
			src, dst := rng.Intn(n), rng.Intn(n)
			all[dst].Est.MemPerCore = all[src].Est.MemPerCore
			all[dst].Est.TotalNs = all[src].Est.TotalNs
		}
		want := paretoFront(all)

		// contiguous shards, like the Fop shards of the real search
		nShards := 1 + rng.Intn(8)
		bounds := make([]int, nShards+1)
		bounds[nShards] = n
		for i := 1; i < nShards; i++ {
			bounds[i] = rng.Intn(n + 1)
		}
		sort.Ints(bounds)
		order := rng.Perm(nShards) // scrambled processing order

		for _, workers := range []int{1, 2, 4, 8} {
			pf := &pruneFrontier{}
			shards := make([][]Candidate, nShards)
			var next atomic.Int64
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						i := int(next.Add(1)) - 1
						if i >= nShards {
							return
						}
						si := order[i]
						for _, c := range all[bounds[si]:bounds[si+1]] {
							// the engine's leaf bound: strictly below
							// the exact time
							if pf.dominated(c.Est.MemPerCore, leafBound(c.Est)) {
								continue
							}
							shards[si] = append(shards[si], c)
						}
						// the shard's one frontier write
						shards[si], _ = pf.add(shards[si]...)
					}
				}()
			}
			wg.Wait()

			var front Frontier
			for si := range shards {
				for _, c := range shards[si] {
					front.Insert(c)
				}
			}
			got := front.Candidates()
			if len(got) != len(want) {
				t.Fatalf("trial %d workers %d: frontier size %d, want %d", trial, workers, len(got), len(want))
			}
			for i := range want {
				if got[i].Est != want[i].Est {
					t.Fatalf("trial %d workers %d: entry %d = %+v, want %+v (tags are enum indices)",
						trial, workers, i, got[i].Est, want[i].Est)
				}
			}
		}
	}
}

// TestLeafTwinSurvivesFrontier is the tie-safety of the leaf bound on
// the real leaf path: a frontier entry exactly equal in (memory, time)
// to a leaf of a Fop — the twin another worker or an earlier shard
// priced — must not prune that leaf, because the enumeration-order
// merge decides the tie. processFop must keep every leaf it keeps against an empty
// frontier when the frontier holds that leaf's twin: the 1e-9 scale of
// leafBound (and of the prefix and screen bounds above it) is what
// keeps it.
func TestLeafTwinSurvivesFrontier(t *testing.T) {
	s := New(device.IPUMK2().Subset(64), testCM(), DefaultConstraints(), core.DefaultConfig())
	e := expr.MatMul("mm", 256, 256, 512, dtype.FP16)
	fops := s.enumerateFops(e)
	w := newSearchWorker(s, e, s.CM.Resolve(e.Name, e.Kind), nil)
	checked := 0
	for _, fop := range fops {
		var open fopShard
		w.processFop(fop, &open, &pruneFrontier{})
		for _, twin := range open.cands {
			pf := &pruneFrontier{}
			pf.add(Candidate{Est: twin.Est})
			var sh fopShard
			w.processFop(fop, &sh, pf)
			kept := slices.ContainsFunc(sh.cands, func(c Candidate) bool {
				return c.Est == twin.Est && slices.EqualFunc(c.fts, twin.fts, slices.Equal)
			})
			if !kept {
				t.Fatalf("Fop %v: leaf %v (%+v) pruned by its exact twin on the frontier", fop, twin.fts, twin.Est)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no leaf checked")
	}
}

// TestFtChoicesBudgetFullyUsed checks the subsample returns exactly
// MaxFtCombos distinct entries spanning both extremes (the old
// implementation could return fewer than the budget).
func TestFtChoicesBudgetFullyUsed(t *testing.T) {
	e := expr.MatMul("mm", 64, 64, 64, dtype.FP16)
	tr := e.Inputs[0] // two eligible dims
	for _, m := range []int{2, 3, 7, 16} {
		s := New(device.IPUMK2(), testCM(), Constraints{ParallelismMin: 0.9, PaddingMin: 0.9, MaxFtCombos: m}, core.DefaultConfig())
		// share 64 over 2 dims: 28 combos, well above every budget here
		out, truncated := s.ftChoices(tr, 64)
		if !truncated {
			t.Fatalf("m=%d: expected truncation", m)
		}
		if len(out) != m {
			t.Fatalf("m=%d: got %d combos, want the full budget", m, len(out))
		}
		seen := make(map[string]bool)
		for _, ft := range out {
			seen[fmt.Sprint(ft)] = true
		}
		if len(seen) != m {
			t.Fatalf("m=%d: %d distinct combos, want %d", m, len(seen), m)
		}
		if p := prodOf(out[0]); p != 1 {
			t.Errorf("m=%d: first combo ∏ft=%d, want the fully replicated extreme", m, p)
		}
		if p := prodOf(out[len(out)-1]); p != 64 {
			t.Errorf("m=%d: last combo ∏ft=%d, want the fully partitioned extreme", m, p)
		}
	}

	// below the budget: everything kept, no truncation
	s := New(device.IPUMK2(), testCM(), DefaultConstraints(), core.DefaultConfig())
	out, truncated := s.ftChoices(tr, 4) // 6 combos < 64
	if truncated || len(out) != 6 {
		t.Fatalf("share=4: got %d combos truncated=%t, want all 6 untruncated", len(out), truncated)
	}

	// m == 1 keeps the replicated extreme
	s1 := New(device.IPUMK2(), testCM(), Constraints{ParallelismMin: 0.9, PaddingMin: 0.9, MaxFtCombos: 1}, core.DefaultConfig())
	out, truncated = s1.ftChoices(tr, 64)
	if !truncated || len(out) != 1 || prodOf(out[0]) != 1 {
		t.Fatalf("m=1: got %v truncated=%t, want the single replicated combo", out, truncated)
	}
}

func prodOf(vs []int) int {
	p := 1
	for _, v := range vs {
		p *= v
	}
	return p
}

// coldParetoDigests pins the sha256 of every Pareto candidate a cold M5
// pass selects (see paretoDigest), per batch. The digests were taken
// while the engine still seeded its frontier before the workers
// started, so they hold the plans fixed across any change to the
// pruning schedule.
var coldParetoDigests = map[int]string{
	1: "81ea9e3e89aa3f3fc617a8ab2f3e5e42713e64cf033e11a19f2d290734554c4b", // 410 candidates
	8: "4b35802006ebbaffa168802041de2d006a3d23698feaf9df8279a43ceb16650e", // 584 candidates
}

// paretoDigest runs one cold pass over the distinct operators of the
// benchmark's five models at batch on IPUMK2 and hashes, in model and
// operator order, every Pareto candidate's operator signature, Fop,
// temporal factors, exact TotalNs bits and per-core memory.
func paretoDigest(t *testing.T, batch, workers int) (string, int) {
	t.Helper()
	s := newSearcher()
	s.Workers = workers
	h := sha256.New()
	seen := make(map[plancache.Key]bool)
	n := 0
	for _, m := range m5(t, batch) {
		for _, op := range m.Ops {
			e := op.Expr
			k := s.Key(e)
			if seen[k] {
				continue
			}
			seen[k] = true
			r, err := s.searchOp(context.Background(), e)
			if err != nil {
				t.Fatalf("%s/%s: %v", m.Name, e.Name, err)
			}
			for _, c := range r.Pareto {
				fmt.Fprintf(h, "%s %v", e.Signature(), c.Plan.Fop)
				for _, rt := range c.Plan.Tensors {
					fmt.Fprintf(h, " %v", rt.Ft)
				}
				fmt.Fprintf(h, " %016x %d\n", math.Float64bits(c.Est.TotalNs), c.Est.MemPerCore)
				n++
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil)), n
}

// TestColdParetoDigest pins the full-device plans of a cold M5 pass:
// the Pareto sets of every distinct operator at batch 1 and 8, bit for
// bit, sequentially and under a three-worker pool. TestSearchEquivalence
// holds the engine to the reference on small devices; this holds the
// shipped device's selections against any change to the pruning order,
// the bounds or the frontier warm-up.
func TestColdParetoDigest(t *testing.T) {
	for _, batch := range []int{1, 8} {
		for _, workers := range []int{1, 3} {
			got, n := paretoDigest(t, batch, workers)
			t.Logf("batch %d, workers %d: %d Pareto candidates, digest %s", batch, workers, n, got)
			if want := coldParetoDigests[batch]; got != want {
				t.Errorf("batch %d, workers %d: Pareto digest %s, want %s", batch, workers, got, want)
			}
		}
	}
}
