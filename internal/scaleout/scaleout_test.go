package scaleout

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/device"
	"repro/internal/dtype"
	"repro/internal/expr"
	"repro/internal/graph"
)

// chain builds a linear model of `n` square matmuls rows×dim×dim, each
// with its own weight.
func chain(name string, n, rows, dim int) *graph.Model {
	m := &graph.Model{Name: name, BatchSize: 1}
	for i := 0; i < n; i++ {
		src := i - 1
		if i == 0 {
			src = graph.External
		}
		m.Ops = append(m.Ops, graph.Op{
			Name:         fmt.Sprintf("mm%d", i),
			Expr:         expr.MatMul(fmt.Sprintf("mm%d", i), rows, dim, dim, dtype.FP16),
			WeightInputs: []int{1},
			Sources:      []int{src, graph.External},
			Repeat:       1,
		})
	}
	return m
}

// search builds m's candidate space under cfg and searches it,
// compiling each stage model with f.
func search(m *graph.Model, ic device.Interconnect, cfg Config, f func(*graph.Model) (any, float64, error)) (*Result, error) {
	sp, err := NewSpace(m, cfg)
	if err != nil {
		return nil, err
	}
	return sp.Search(context.Background(), ic, func(i int) (any, float64, error) { return f(sp.Stages[i].Model) })
}

// flopCompile prices a stage at FLOPs/1e3 ns and rejects any stage
// whose (replicated) weight footprint exceeds budget — an analytic
// stand-in for the single-chip compiler.
func flopCompile(budget int64) func(*graph.Model) (any, float64, error) {
	return func(m *graph.Model) (any, float64, error) {
		if b := m.ParamBytes(); b > budget {
			return nil, 0, fmt.Errorf("stage %s: %d weight bytes over budget %d", m.Name, b, budget)
		}
		return m.Name, float64(m.FLOPs()) / 1e3, nil
	}
}

var testIC = device.Interconnect{LinkGBps: 100, LatencyNs: 500, Topology: device.TopoRing}

func TestSplitExpr(t *testing.T) {
	e := expr.MatMul("mm", 64, 128, 256, dtype.FP16)
	s, ok := SplitExpr(e, 2)
	if !ok || s.Axes[0].Size != 32 || e.Axes[0].Size != 64 {
		t.Fatalf("split: ok=%t sizes %d/%d, want a fresh 32-row copy", ok, s.Axes[0].Size, e.Axes[0].Size)
	}
	if s.Axes[1].Size != 128 || s.Axes[2].Size != 256 {
		t.Fatal("split touched a non-leading axis")
	}
	if _, ok := SplitExpr(e, 3); ok {
		t.Fatal("64 rows split 3 ways accepted")
	}
	// conv batch axis is plain → splittable; an indivisible batch is not
	conv := expr.Conv2D("cv", 4, 16, 16, 8, 8, 3, 3, 1, dtype.FP16)
	if s, ok := SplitExpr(conv, 2); !ok || s.Axes[0].Size != 2 {
		t.Fatal("conv batch split rejected")
	}
	if _, ok := SplitExpr(conv, 8); ok {
		t.Fatal("batch-4 conv split 8 ways accepted")
	}
	// a compound-dim axis must refuse: fake an expr whose lead spatial
	// axis strides an input
	bad := expr.MatMul("strided", 64, 64, 64, dtype.FP16)
	bad.Inputs[0].Dims[0] = expr.DS(0, 2)
	if _, ok := SplitExpr(bad, 2); ok {
		t.Fatal("strided lead axis split accepted")
	}
}

// stage returns the model of stage [start,end) split ways that
// NewSpace names for m over `chips` chips, and whether it has one.
func stage(m *graph.Model, chips, start, end, split int) (*graph.Model, bool) {
	sp, err := NewSpace(m, Config{NChips: chips})
	if err != nil {
		return nil, false
	}
	i := sp.index[sp.slot(start, end, split)]
	if i < 0 || sp.Stages[i].Model == nil {
		return nil, false
	}
	return sp.Stages[i].Model, true
}

func TestStageModel(t *testing.T) {
	m := chain("c", 3, 64, 128)
	sm, ok := stage(m, 2, 1, 3, 1)
	if !ok {
		t.Fatal("stage model refused")
	}
	if len(sm.Ops) != 2 {
		t.Fatalf("stage has %d ops, want 2", len(sm.Ops))
	}
	if sm.Ops[0].Sources[0] != graph.External {
		t.Fatal("cross-cut source not remapped to External")
	}
	if sm.Ops[1].Sources[0] != 0 {
		t.Fatal("intra-stage source not remapped")
	}
	if err := sm.Validate(); err != nil {
		t.Fatal(err)
	}
	// the whole-range unsplit stage is the model itself, not a copy
	if whole, ok := stage(m, 2, 0, 3, 1); !ok || whole != m {
		t.Fatalf("whole-range stage = %p (%q), want the model %p", whole, whole.Name, m)
	}
	// split stage: every op's rows halve, weights keep full shape
	half, ok := stage(m, 2, 0, 3, 2)
	if !ok {
		t.Fatal("split stage refused")
	}
	if half.Ops[0].Expr.Axes[0].Size != 32 {
		t.Fatal("split not applied")
	}
	if half.Ops[0].WeightBytes() != m.Ops[0].WeightBytes() {
		t.Fatal("row split changed the (replicated) weight footprint")
	}
}

func TestSearchSingleChipIsWholeModel(t *testing.T) {
	m := chain("c", 4, 64, 256)
	res, err := search(m, testIC, Config{NChips: 1}, flopCompile(math.MaxInt64))
	if err != nil {
		t.Fatal(err)
	}
	b := res.Best
	if len(b.Stages) != 1 || b.Stages[0].Split != 1 || b.Chips != 1 {
		t.Fatalf("1-chip best = %d stages split %d", len(b.Stages), b.Stages[0].Split)
	}
	if b.Stages[0].Model.Name != m.Name {
		t.Fatalf("1-chip stage model is %q, want the original model", b.Stages[0].Model.Name)
	}
	if len(b.Boundaries) != 0 || b.TransferNs != 0 {
		t.Fatal("1-chip partition charges transfers")
	}
	if want := float64(m.FLOPs()) / 1e3; b.TotalNs != want {
		t.Fatalf("1-chip total %g, want the plain compile price %g", b.TotalNs, want)
	}
}

func TestSearchTensorSplitWinsOnCheapFabric(t *testing.T) {
	m := chain("c", 4, 4096, 512)
	single := float64(m.FLOPs()) / 1e3
	// fat links: the gather is nearly free, so splitting the rows across
	// both chips halves the compute and wins
	fat := device.Interconnect{LinkGBps: 1e6, LatencyNs: 1, Topology: device.TopoAllToAll}
	res, err := search(m, fat, Config{NChips: 2}, flopCompile(math.MaxInt64))
	if err != nil {
		t.Fatal(err)
	}
	b := res.Best
	if b.TotalNs >= single {
		t.Fatalf("2-chip best %g not better than single-chip %g", b.TotalNs, single)
	}
	if b.Chips != 2 {
		t.Fatalf("best uses %d chips, want 2", b.Chips)
	}
	if len(b.Stages) == 1 && b.Stages[0].Split == 2 {
		if b.Stages[0].GatherNs <= 0 || b.Stages[0].GatherBytes <= 0 {
			t.Fatal("split stage priced no all-gather")
		}
	}
}

// TestSearchTieBreak pins the order among equally priced partitions:
// fewer chips, then fewer stages, then the first enumerated.
func TestSearchTieBreak(t *testing.T) {
	m := chain("c", 4, 64, 64)
	// infinite bandwidth and no latency make every transfer free, so a
	// partition's total (M=1) is the sum of its stage prices
	free := device.Interconnect{LinkGBps: math.Inf(1), Topology: device.TopoAllToAll}
	// a whole-model stage costs 16 per op only when split 4 ways; every
	// other stage costs 16 per op at any split. All feasible partitions
	// but the whole model on 1 or 2 chips then price to 64.
	stub := func(sm *graph.Model) (any, float64, error) {
		if len(sm.Ops) == 4 && sm.Ops[0].Expr.Axes[0].Size != 16 {
			return sm.Name, 1e9, nil
		}
		return sm.Name, 16 * float64(len(sm.Ops)), nil
	}
	res, err := search(m, free, Config{NChips: 4}, stub)
	if err != nil {
		t.Fatal(err)
	}
	// the whole model split 4 ways ties at 64 and is enumerated first,
	// but a 2-stage pipeline on 2 chips uses fewer; of the three tied
	// 2-chip pipelines the first enumerated (cut after op 1) wins
	b := res.Best
	if b.TotalNs != 64 || b.Chips != 2 || len(b.Stages) != 2 || b.Stages[0].End != 1 {
		t.Fatalf("best = %g ns, %d chips, %d stages, first ends at %d; want 64 ns, 2 chips, the cut after op 1",
			b.TotalNs, b.Chips, len(b.Stages), b.Stages[0].End)
	}

	// stages enumerate in ascending count, so the stage rule is pinned
	// on the order itself
	one := &Partition{TotalNs: 1, Chips: 2, Stages: make([]Stage, 1)}
	two := &Partition{TotalNs: 1, Chips: 2, Stages: make([]Stage, 2)}
	if !cheaper(one, two) || cheaper(two, one) {
		t.Fatal("equal total and chips: fewer stages did not win")
	}
	if cheaper(one, one) {
		t.Fatal("a full tie displaced the incumbent")
	}
}

func TestSearchPipelineCutWhenModelDoesNotFit(t *testing.T) {
	m := chain("c", 4, 64, 512)
	perOp := m.Ops[0].WeightBytes()
	// budget fits two ops' weights but not four — row splits replicate
	// weights, so only a pipeline cut can shrink the footprint
	budget := 2 * perOp
	if _, err := search(m, testIC, Config{NChips: 1}, flopCompile(budget)); err == nil {
		t.Fatal("over-budget model compiled on one chip")
	} else {
		var ie *InfeasibleError
		if !errors.As(err, &ie) || ie.NChips != 1 {
			t.Fatalf("err = %v, want *InfeasibleError for 1 chip", err)
		}
	}
	res, err := search(m, testIC, Config{NChips: 2}, flopCompile(budget))
	if err != nil {
		t.Fatal(err)
	}
	b := res.Best
	if len(b.Stages) != 2 {
		t.Fatalf("best = %d stages, want a 2-stage pipeline", len(b.Stages))
	}
	if b.TotalNs <= 0 || math.IsInf(b.TotalNs, 0) || math.IsNaN(b.TotalNs) {
		t.Fatalf("total = %g, want finite positive", b.TotalNs)
	}
	if len(b.Boundaries) == 0 || b.TransferNs <= 0 {
		t.Fatal("pipeline cut priced no boundary transfer")
	}
	if res.Infeasible == 0 {
		t.Fatal("infeasible candidates not counted")
	}
	// boundary bytes are the real activation tensor: 64×512 fp16
	if got := b.Boundaries[0].Bytes; got != 64*512*2 {
		t.Fatalf("boundary bytes = %d, want %d", got, 64*512*2)
	}
}

func TestSearchMicrobatchesOverlapStages(t *testing.T) {
	m := chain("c", 4, 1024, 512)
	latency := float64(m.FLOPs()) / 1e3
	res, err := search(m, testIC, Config{NChips: 2, Microbatches: 8, MaxSplit: 1},
		flopCompile(math.MaxInt64))
	if err != nil {
		t.Fatal(err)
	}
	b := res.Best
	if len(b.Stages) != 2 {
		t.Fatalf("M=8 best = %d stages, want pipelining to win", len(b.Stages))
	}
	if b.TotalNs >= latency {
		t.Fatalf("pipelined total %g not better than sequential %g", b.TotalNs, latency)
	}
	if b.Microbatches != 8 {
		t.Fatalf("Microbatches = %d", b.Microbatches)
	}
}

func TestPriceFormula(t *testing.T) {
	p := &Partition{
		Stages:       []Stage{{ComputeNs: 100}, {ComputeNs: 300}},
		Boundaries:   []Boundary{{Ns: 40}},
		Microbatches: 4,
	}
	total, transfer, bubble := p.Price([]float64{100, 300})
	// u = (25, 75), x = 10 → fill 110, bottleneck 75, steady 225
	if want := 335.0; math.Abs(total-want) > 1e-9 {
		t.Fatalf("total = %g, want %g", total, want)
	}
	if want := 40.0; transfer != want {
		t.Fatalf("transfer = %g, want %g", transfer, want)
	}
	// mean interval (25+75+10)/3 = 36.67 → bubble 3×(75−36.67) = 115
	if want := 3 * (75 - 110.0/3); math.Abs(bubble-want) > 1e-9 {
		t.Fatalf("bubble = %g, want %g", bubble, want)
	}
	// M=1: no bubble, plain sum
	p.Microbatches = 1
	total, _, bubble = p.Price([]float64{100, 300})
	if total != 440 || bubble != 0 {
		t.Fatalf("M=1: total %g bubble %g, want 440 / 0", total, bubble)
	}
}

func TestEnumerateHelpers(t *testing.T) {
	// splits: S=2 stages over 3 chips, unlimited per-stage ways
	var got [][]int
	for gv, ok := []int{1, 1}, true; ok; ok = nextSplit(gv, 3, 3) {
		got = append(got, slices.Clone(gv))
	}
	want := map[string]bool{"[1 1]": true, "[1 2]": true, "[2 1]": true}
	if len(got) != len(want) {
		t.Fatalf("splits = %v", got)
	}
	for _, g := range got {
		if !want[fmt.Sprint(g)] {
			t.Fatalf("unexpected split vector %v", g)
		}
	}
	// cuts: 4 ops, 2 stages → 3 cut points
	m := chain("c", 4, 64, 64)
	cuts, capped := enumerateCuts(m, 2, 4096)
	if capped || len(cuts) != 3 {
		t.Fatalf("cuts = %v capped=%t", cuts, capped)
	}
	// a tiny budget forces the FLOP-balanced fallback, which must emit
	// ascending in-range vectors around the balance point
	cuts, capped = enumerateCuts(m, 3, 1)
	if !capped || len(cuts) == 0 {
		t.Fatalf("fallback cuts = %v capped=%t", cuts, capped)
	}
	for _, cv := range cuts {
		if len(cv) != 2 || cv[0] >= cv[1] || cv[0] < 1 || cv[1] > 3 {
			t.Fatalf("bad fallback cut vector %v", cv)
		}
	}
}

// refSplits is the recursive split enumeration nextSplit replaced: every
// per-stage chip assignment g_s in [1,maxSplit], Σ g_s ≤ nChips, in
// lexicographic order, materialised.
func refSplits(S, nChips, maxSplit int) [][]int {
	var out [][]int
	cur := make([]int, 0, S)
	var rec func(used int)
	rec = func(used int) {
		if len(cur) == S {
			out = append(out, slices.Clone(cur))
			return
		}
		remaining := S - len(cur) - 1
		for g := 1; g <= maxSplit && used+g+remaining <= nChips; g++ {
			cur = append(cur, g)
			rec(used + g)
			cur = cur[:len(cur)-1]
		}
	}
	rec(0)
	return out
}

// TestNextSplitMatchesEnumeration holds the in-place split walk to the
// materialised enumeration it replaced: the same vectors in the same
// order, so candidates (and the first-enumerated tie-break) keep their
// order.
func TestNextSplitMatchesEnumeration(t *testing.T) {
	for nChips := 1; nChips <= 8; nChips++ {
		for S := 1; S <= nChips; S++ {
			for maxSplit := 1; maxSplit <= nChips; maxSplit++ {
				var got [][]int
				gv := make([]int, S)
				for i := range gv {
					gv[i] = 1
				}
				for ok := true; ok; ok = nextSplit(gv, nChips, maxSplit) {
					got = append(got, slices.Clone(gv))
				}
				if want := refSplits(S, nChips, maxSplit); fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("S=%d chips=%d maxSplit=%d: walk %v, want %v", S, nChips, maxSplit, got, want)
				}
			}
		}
	}
}

// TestSpaceNamesEveryStageOnce pins the first walk against the second:
// the stages NewSpace names are exactly those the candidates reach,
// each named once, and Search compiles each at most once.
func TestSpaceNamesEveryStageOnce(t *testing.T) {
	m := chain("c", 5, 64, 64)
	m.Ops[3].Expr = expr.MatMul("odd", 63, 64, 64, dtype.FP16) // refuses 2 and 4 ways, takes 3
	sp, err := NewSpace(m, Config{NChips: 4})
	if err != nil {
		t.Fatal(err)
	}
	named := map[[3]int]bool{}
	for _, st := range sp.Stages {
		k := [3]int{st.Start, st.End, st.Split}
		if named[k] {
			t.Fatalf("stage %v named twice", k)
		}
		named[k] = true
		refused := false
		for i := st.Start; i < st.End; i++ {
			refused = refused || m.Ops[i].Expr.Axes[0].Size%st.Split != 0
		}
		if (st.Model == nil) != refused {
			t.Fatalf("stage %v: model %v, want nil exactly when an op refuses the split", k, st.Model != nil)
		}
	}
	reached := map[[3]int]bool{}
	for si, cuts := range sp.cuts {
		for _, cv := range cuts {
			for _, gv := range refSplits(si+1, 4, 4) {
				bounds := append(append([]int{0}, cv...), len(m.Ops))
				for s := range gv {
					reached[[3]int{bounds[s], bounds[s+1], gv[s]}] = true
				}
			}
		}
	}
	if len(reached) != len(named) {
		t.Fatalf("candidates reach %d stages, NewSpace named %d", len(reached), len(named))
	}
	for k := range reached {
		if !named[k] {
			t.Fatalf("stage %v reached but never named", k)
		}
	}
	calls := make([]int, len(sp.Stages))
	if _, err := sp.Search(context.Background(), testIC, func(i int) (any, float64, error) {
		calls[i]++
		return nil, float64(sp.Stages[i].Model.FLOPs()), nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, n := range calls {
		if n > 1 {
			t.Fatalf("stage %d compiled %d times", i, n)
		}
	}
}

// TestSearchPollsCancellation pins that a done context ends the
// candidate walk at once, before any stage compiles.
func TestSearchPollsCancellation(t *testing.T) {
	sp, err := NewSpace(chain("c", 4, 64, 64), Config{NChips: 4})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = sp.Search(ctx, testIC, func(int) (any, float64, error) {
		t.Fatal("a stage compiled after cancellation")
		return nil, 0, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
