package search

import (
	"context"
	"math/big"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/device"
	"repro/internal/dtype"
	"repro/internal/expr"
	"repro/internal/kernel"
)

var (
	once sync.Once
	cm   *costmodel.Set
)

func testCM() *costmodel.Set {
	once.Do(func() { cm = costmodel.MustNewSet(device.IPUMK2()) })
	return cm
}

func newSearcher() *Searcher {
	return New(device.IPUMK2(), testCM(), DefaultConstraints(), core.DefaultConfig())
}

func TestSearchMatMulFindsPareto(t *testing.T) {
	s := newSearcher()
	e := expr.MatMul("mm", 1024, 1024, 1024, dtype.FP16)
	r, err := s.SearchOp(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Pareto) < 2 {
		t.Fatalf("want a real trade-off frontier, got %d plans", len(r.Pareto))
	}
	if r.Spaces.Filtered < len(r.Pareto) {
		t.Error("filtered space smaller than Pareto set")
	}
	t.Logf("matmul 1024³: filtered=%d pareto=%d elapsed=%s",
		r.Spaces.Filtered, len(r.Pareto), r.Elapsed)
}

func TestParetoFrontIsNonDominated(t *testing.T) {
	s := newSearcher()
	e := expr.MatMul("mm", 512, 2048, 512, dtype.FP16)
	r, err := s.SearchOp(e)
	if err != nil {
		t.Fatal(err)
	}
	for i := range r.Pareto {
		for j := range r.Pareto {
			if i == j {
				continue
			}
			a, b := r.Pareto[i].Est, r.Pareto[j].Est
			if a.MemPerCore <= b.MemPerCore && a.TotalNs <= b.TotalNs &&
				(a.MemPerCore < b.MemPerCore || a.TotalNs < b.TotalNs) {
				t.Fatalf("plan %d dominates plan %d on the frontier", i, j)
			}
		}
	}
	// sorted by memory ascending, time strictly descending
	for i := 1; i < len(r.Pareto); i++ {
		if r.Pareto[i].Est.MemPerCore <= r.Pareto[i-1].Est.MemPerCore {
			t.Fatal("frontier not sorted by memory")
		}
		if r.Pareto[i].Est.TotalNs >= r.Pareto[i-1].Est.TotalNs {
			t.Fatal("more memory must buy strictly less time on the frontier")
		}
	}
}

// TestParallelismConstraintFilters compares the exact rule-based counts
// of Searcher.Reference: the engine's Filtered undercounts inside cut
// subtrees by design (see Spaces.Filtered), so it says nothing about
// the filter.
func TestParallelismConstraintFilters(t *testing.T) {
	loose := New(device.IPUMK2(), testCM(), Constraints{ParallelismMin: 0.1, PaddingMin: 0.9}, core.DefaultConfig())
	tight := New(device.IPUMK2(), testCM(), Constraints{ParallelismMin: 0.95, PaddingMin: 0.9}, core.DefaultConfig())
	e := expr.MatMul("mm", 256, 256, 256, dtype.FP16)
	rl, err := loose.Reference(e)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := tight.SearchOp(e)
	if err != nil {
		t.Fatal(err)
	}
	rtRef, err := tight.Reference(e)
	if err != nil {
		t.Fatal(err)
	}
	if rtRef.Spaces.Filtered >= rl.Spaces.Filtered {
		t.Errorf("tighter parallelism should filter more: %d vs %d",
			rtRef.Spaces.Filtered, rl.Spaces.Filtered)
	}
	// every surviving plan respects the constraint
	for _, c := range rt.Pareto {
		if c.Plan.Cores < int(0.5*float64(device.IPUMK2().Cores)) {
			t.Errorf("plan uses only %d cores under tight parallelism", c.Plan.Cores)
		}
	}
}

func TestPaddingConstraintFilters(t *testing.T) {
	// A prime-ish axis forces padding; a strict constraint must reject
	// partitions that pad too much.
	strict := New(device.IPUMK2(), testCM(), Constraints{ParallelismMin: 0.5, PaddingMin: 0.99}, core.DefaultConfig())
	e := expr.MatMul("mm", 509, 512, 512, dtype.FP16) // 509 is prime
	r, err := strict.SearchOp(e)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range r.Pareto {
		for a := range e.Axes {
			padded := c.Plan.SubLen[a] * c.Plan.Fop[a]
			if ratio := float64(e.Axes[a].Size) / float64(padded); ratio < 0.99 {
				t.Errorf("plan pads axis %d beyond constraint: %f", a, ratio)
			}
		}
	}
}

func TestSearchCacheHit(t *testing.T) {
	s := newSearcher()
	e1 := expr.MatMul("layer0", 256, 256, 256, dtype.FP16)
	e2 := expr.MatMul("layer1", 256, 256, 256, dtype.FP16) // same shape, new name
	r1, err := s.SearchOp(e1)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.SearchOp(e2)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Error("identical operators should share one cached result")
	}
}

func TestSearchConv(t *testing.T) {
	s := newSearcher()
	e := expr.Conv2D("conv", 8, 64, 64, 56, 56, 3, 3, 1, dtype.FP16)
	r, err := s.SearchOp(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Pareto) == 0 {
		t.Fatal("conv search found nothing")
	}
	complete := CompleteSpace(e)
	t.Logf("conv: filtered=%d pareto=%d complete=%s elapsed=%s",
		r.Spaces.Filtered, len(r.Pareto), complete, r.Elapsed)
	// Fig 18: the complete space of a 7-axis conv is astronomically larger
	// than the filtered space.
	if complete.Cmp(big.NewInt(int64(r.Spaces.Filtered)*1000)) < 0 {
		t.Errorf("complete space %s should dwarf filtered %d", complete, r.Spaces.Filtered)
	}
}

// TestCompleteSpaceIsPinned holds the Fig 18 estimator to the value it
// produced while it still ran inside every search: it samples from a
// fixed seed, so the figure's Complete column must not move.
func TestCompleteSpaceIsPinned(t *testing.T) {
	got := CompleteSpace(expr.MatMul("mm", 512, 1024, 2048, dtype.FP16))
	if want := "888151992172"; got.String() != want {
		t.Errorf("complete space = %s, want %s", got, want)
	}
}

func TestSearchGatherAndVector(t *testing.T) {
	s := newSearcher()
	for _, e := range []*expr.Expr{
		expr.GatherOp("emb", 1024, 30522, 1024, dtype.FP16),
		expr.Elementwise("gelu", 1024, 4096, 8, dtype.FP16),
		expr.ReduceSum("sum", 128, 1024, dtype.FP16),
		expr.Pool2D("pool", 128, 64, 28, 28, 2, 2, 2, dtype.FP16),
	} {
		r, err := s.SearchOp(e)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		if len(r.Pareto) == 0 {
			t.Fatalf("%s: no plans", e.Name)
		}
	}
}

func TestGatherAxisNeverSpatiallyPartitioned(t *testing.T) {
	s := newSearcher()
	e := expr.GatherOp("emb", 1024, 30522, 1024, dtype.FP16)
	r, err := s.SearchOp(e)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range r.Pareto {
		if c.Plan.Fop[1] != 1 { // axis v
			t.Fatal("gather axis must not be spatially partitioned")
		}
	}
}

func TestFastestWithinBudget(t *testing.T) {
	s := newSearcher()
	e := expr.MatMul("mm", 1024, 1024, 1024, dtype.FP16)
	r, err := s.SearchOp(e)
	if err != nil {
		t.Fatal(err)
	}
	min := r.MinMemory()
	if min == nil {
		t.Fatal("no min-memory plan")
	}
	// unlimited budget returns the overall fastest
	best := r.FastestWithin(1 << 40)
	if best == nil || best.Est.TotalNs > min.Est.TotalNs {
		t.Error("unlimited budget should return the fastest plan")
	}
	// budget below the min-memory plan returns nil
	if got := r.FastestWithin(min.Est.MemPerCore - 1); got != nil {
		t.Error("impossible budget should return nil")
	}
	// exactly the min-memory budget returns that plan
	if got := r.FastestWithin(min.Est.MemPerCore); got == nil {
		t.Error("min budget should return the min plan")
	}
}

func TestFtCount(t *testing.T) {
	// share=4 over 2 dims: products dividing 4: 1:(1,1); 2:(1,2),(2,1);
	// 4:(1,4),(4,1),(2,2) → 6 vectors.
	if got := ftCount(4, 2); got != 6 {
		t.Errorf("ftCount(4,2) = %d, want 6", got)
	}
	if got := ftCount(1, 3); got != 1 {
		t.Errorf("ftCount(1,3) = %d, want 1", got)
	}
	if got := ftCount(6, 1); got != 4 { // 1,2,3,6
		t.Errorf("ftCount(6,1) = %d, want 4", got)
	}
}

func TestBinomial(t *testing.T) {
	cases := []struct {
		n, k int
		want int64
	}{
		{5, 2, 10}, {6, 3, 20}, {4, 0, 1}, {4, 4, 1}, {3, 5, 0},
	}
	for _, c := range cases {
		if got := binomial(c.n, c.k); got != c.want {
			t.Errorf("binomial(%d,%d) = %d, want %d", c.n, c.k, got, c.want)
		}
	}
}

// TestKernelTaskPredictedOnce pins the sketch→price threading for an
// opaque custom cost function: one cold search must evaluate it exactly
// once per distinct kernel task, though the shard-ordering pass prices
// tasks the leaves price again, and leaves that differ only in
// temporal factors share tasks. (Fitted models are called directly;
// they are cheaper than the memo.)
func TestKernelTaskPredictedOnce(t *testing.T) {
	s := New(device.IPUMK2().Subset(64), testCM(), DefaultConstraints(), core.DefaultConfig())
	s.Workers = 1 // one worker, one memo: global counts must all be 1
	counts := make(map[kernel.Task]int)
	s.CM.RegisterCustom("mm-predcount", func(task kernel.Task) float64 {
		counts[task]++
		return float64(task.M)*float64(task.N)*float64(task.K)*1e-3 +
			float64(task.InBytes+task.OutBytes)*1e-4 + 5
	})
	e := expr.MatMul("mm-predcount", 128, 128, 128, dtype.FP16)
	r, err := s.searchOp(context.Background(), e)
	if err != nil {
		t.Fatal(err)
	}
	if r.Spaces.Priced == 0 || r.Spaces.Pruned == 0 {
		t.Fatalf("want both priced and pruned candidates to exercise both paths, got %+v", r.Spaces)
	}
	if len(counts) == 0 {
		t.Fatal("custom predictor never called")
	}
	for task, n := range counts {
		if n != 1 {
			t.Fatalf("task %+v predicted %d times, want exactly once", task, n)
		}
	}
}

func TestSearchedPlansExecuteFunctionally(t *testing.T) {
	// End-to-end: the best searched plan for a small divisible matmul
	// must execute correctly (ties search → core → codegen together).
	small := device.IPUMK2().Subset(16)
	s := New(small, testCM(), Constraints{ParallelismMin: 0.5, PaddingMin: 1.0}, core.DefaultConfig())
	e := expr.MatMul("mm", 8, 16, 8, dtype.FP32)
	r, err := s.SearchOp(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Pareto) == 0 {
		t.Fatal("no plans")
	}
	t.Logf("plans on 16 cores: %d (pareto %d)", r.Spaces.Filtered, len(r.Pareto))
}
