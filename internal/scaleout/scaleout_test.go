package scaleout

import (
	"errors"
	"fmt"
	"math"
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

// flopCompile prices a stage at FLOPs/1e3 ns and rejects any stage
// whose (replicated) weight footprint exceeds budget — an analytic
// stand-in for the single-chip compiler.
func flopCompile(budget int64) Compile {
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

func TestStageModel(t *testing.T) {
	m := chain("c", 3, 64, 128)
	sm, ok := StageModel(m, 1, 3, 1)
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
	if whole, ok := StageModel(m, 0, 3, 1); !ok || whole != m {
		t.Fatalf("whole-range stage = %p (%q), want the model %p", whole, whole.Name, m)
	}
	// split stage: every op's rows halve, weights keep full shape
	half, ok := StageModel(m, 0, 3, 2)
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
	res, err := Search(m, testIC, Config{NChips: 1}, flopCompile(math.MaxInt64))
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
	res, err := Search(m, fat, Config{NChips: 2}, flopCompile(math.MaxInt64))
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
	res, err := Search(m, free, Config{NChips: 4}, stub)
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
	if _, err := Search(m, testIC, Config{NChips: 1}, flopCompile(budget)); err == nil {
		t.Fatal("over-budget model compiled on one chip")
	} else {
		var ie *InfeasibleError
		if !errors.As(err, &ie) || ie.NChips != 1 {
			t.Fatalf("err = %v, want *InfeasibleError for 1 chip", err)
		}
	}
	res, err := Search(m, testIC, Config{NChips: 2}, flopCompile(budget))
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
	res, err := Search(m, testIC, Config{NChips: 2, Microbatches: 8, MaxSplit: 1},
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
	got := enumerateSplits(2, 3, 3)
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
