package search

import (
	"context"
	"math"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/expr"
	"repro/internal/graph"
	"repro/internal/mathutil"
	"repro/internal/models"
)

// m5 builds the benchmark's five-model set at one batch size.
func m5(t *testing.T, batch int) []*graph.Model {
	t.Helper()
	var ms []*graph.Model
	for _, name := range []string{"BERT", "ViT", "ResNet", "OPT-1.3B-prefill", "OPT-1.3B-decode"} {
		m, err := models.Build(name, batch)
		if err != nil {
			t.Fatal(err)
		}
		ms = append(ms, m)
	}
	return ms
}

// ftKeyOf is the memo key of tensor tr at sharing degree share, derived
// here independently of Searcher.ftSet.
func ftKeyOf(tr expr.TensorRef, share, maxCombos int) ftKey {
	k := ftKey{share: share, dims: len(tr.Dims), maxCombos: maxCombos}
	for d, dim := range tr.Dims {
		if len(dim.Terms) == 1 && dim.Terms[0].Stride == 1 {
			k.eligible |= 1 << d
		}
	}
	return k
}

// TestFtChoiceMemoMatchesFresh checks the memo against fresh
// enumeration: over every (tensor, sharing degree) pair any Fop of any
// M5 operator produces, at batch 1 and 8, the set one long-lived
// searcher hands out equals a freshly built one field for field — so a
// key never conflates two tensors whose choices differ.
func TestFtChoiceMemoMatchesFresh(t *testing.T) {
	s := newSearcher()
	pairs := 0
	for _, batch := range []int{1, 8} {
		for _, m := range m5(t, batch) {
			for _, op := range m.Ops {
				e := op.Expr
				tensors := e.Tensors()
				for _, fop := range s.enumerateFops(e) {
					for _, tr := range tensors[:len(tensors)-1] {
						share := tensorShare(e, tr, fop)
						got, want := s.ftSet(tr, share), s.newFtChoiceSet(tr, share)
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%s/%s %s share %d: memoised set %+v, fresh %+v",
								m.Name, e.Name, tr.Name, share, got, want)
						}
						pairs++
					}
				}
			}
		}
	}
	if s.ftMemo.built*10 > pairs {
		t.Fatalf("%d sets enumerated for %d lookups: the memo hardly hits", s.ftMemo.built, pairs)
	}
	t.Logf("%d (tensor, share) lookups over %d memoised sets", pairs, s.ftMemo.built)
}

// TestFtChoiceMemoConcurrentFirstUse runs cold searches of every
// distinct ResNet-8 convolution concurrently on one fresh searcher, so
// their first uses of the shared choice sets race (make test runs it
// under -race). Each result must equal a sequential search on a
// searcher of its own, and every key is still enumerated once.
func TestFtChoiceMemoConcurrentFirstUse(t *testing.T) {
	var ops []*expr.Expr
	seen := make(map[string]bool)
	for _, op := range models.ResNet(8).Ops {
		if e := op.Expr; e.Kind == expr.KindConv && !seen[e.Signature()] {
			seen[e.Signature()] = true
			ops = append(ops, e)
		}
	}
	shared := newSearcher()
	shared.Workers = 1
	got := make([]*Result, len(ops))
	errs := make([]error, len(ops))
	var wg sync.WaitGroup
	for i, e := range ops {
		wg.Add(1)
		go func(i int, e *expr.Expr) {
			defer wg.Done()
			got[i], errs[i] = shared.searchOp(context.Background(), e)
		}(i, e)
	}
	wg.Wait()
	keys := make(map[ftKey]bool)
	for i, e := range ops {
		if errs[i] != nil {
			t.Fatalf("%s: %v", e.Name, errs[i])
		}
		alone := newSearcher()
		alone.Workers = 1
		want, err := alone.searchOp(context.Background(), e)
		if err != nil {
			t.Fatal(err)
		}
		samePlans(t, got[i], want)
		tensors := e.Tensors()
		for _, fop := range shared.enumerateFops(e) {
			for _, tr := range tensors[:len(tensors)-1] {
				keys[ftKeyOf(tr, tensorShare(e, tr, fop), shared.Cons.MaxFtCombos)] = true
			}
		}
	}
	if shared.ftMemo.built != len(keys) {
		t.Errorf("concurrent first uses enumerated %d sets for %d distinct keys", shared.ftMemo.built, len(keys))
	}
}

// TestFtChoiceEnumerationsPerKey is the work-count guard of the memo:
// one cold pass over M5 at batch 8 on one searcher — each unique
// operator searched once, as a compile does, every Fop shard reading
// its sets from the memo — enumerates every distinct (sharing degree,
// dim shape, cap) key at most once, where enumerating per search would
// take each key once per operator using it. A count, so it reads the
// same on a noisy runner.
func TestFtChoiceEnumerationsPerKey(t *testing.T) {
	s := newSearcher()
	s.Workers = 1
	keys := make(map[ftKey]bool)
	perOp := 0 // what per-search enumeration takes: one per (op, key)
	for _, m := range m5(t, 8) {
		for _, op := range m.Ops {
			e := op.Expr
			if s.Cached(e) {
				continue
			}
			if _, err := s.SearchOp(e); err != nil {
				t.Fatalf("%s/%s: %v", m.Name, e.Name, err)
			}
			opKeys := make(map[ftKey]bool)
			tensors := e.Tensors()
			for _, fop := range s.enumerateFops(e) {
				for _, tr := range tensors[:len(tensors)-1] {
					k := ftKeyOf(tr, tensorShare(e, tr, fop), s.Cons.MaxFtCombos)
					keys[k], opKeys[k] = true, true
				}
			}
			perOp += len(opKeys)
		}
	}
	if s.ftMemo.built > len(keys) {
		t.Errorf("a cold M5 pass enumerated %d choice sets for %d distinct keys", s.ftMemo.built, len(keys))
	}
	t.Logf("cold M5 pass: %d enumerations, %d distinct keys, %d without the memo", s.ftMemo.built, len(keys), perOp)
}

// refShardOrder is shardOrder as it stood before it sorted precomputed
// records: a stable sort of the indices under a closure comparator.
// Kept as the reference the record sort is checked against.
func refShardOrder(s *Searcher, e *expr.Expr, fops [][]int, pred costmodel.Predictor) []int {
	order := make([]int, len(fops))
	for i := range order {
		order[i] = i
	}
	cores := make([]int, len(fops))
	bound := make([]float64, len(fops))
	sketch := core.NewPlanSketch(e, s.Cfg)
	for i, fop := range fops {
		cores[i] = mathutil.Prod(fop...)
		if sketch.Compute(fop, nil) {
			bound[i] = leafBound(sketch.Estimate(s.CM.Spec, pred))
		} else {
			bound[i] = math.Inf(1)
		}
	}
	sort.SliceStable(order, func(i, j int) bool {
		if cores[order[i]] != cores[order[j]] {
			return cores[order[i]] > cores[order[j]]
		}
		return bound[order[i]] < bound[order[j]]
	})
	return order
}

// TestShardOrderMatchesStableSort checks the best-first shard order
// against the old comparator on every operator of M5 at batch 1 and 8.
func TestShardOrderMatchesStableSort(t *testing.T) {
	s := newSearcher()
	ops, ties := 0, 0
	for _, batch := range []int{1, 8} {
		for _, m := range m5(t, batch) {
			for _, op := range m.Ops {
				e := op.Expr
				fops := s.enumerateFops(e)
				pred := s.CM.Resolve(e.Name, e.Kind)
				got, want := s.shardOrder(e, fops, pred), refShardOrder(s, e, fops, pred)
				if !slices.Equal(got, want) {
					t.Fatalf("%s/%s: shard order %v, stable sort %v", m.Name, e.Name, got, want)
				}
				for i := 1; i < len(want); i++ {
					if mathutil.Prod(fops[want[i]]...) == mathutil.Prod(fops[want[i-1]]...) {
						ties++ // the bound, then the index, decides
					}
				}
				ops++
			}
		}
	}
	if ties == 0 {
		t.Fatal("no equal-parallelism shards: the tie-breaks are untested")
	}
	t.Logf("%d operators, %d equal-parallelism neighbours", ops, ties)
}
