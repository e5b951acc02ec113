package scaleout

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/big"
	"slices"
	"sort"
	"strings"
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
	for _, st := range sp.Stages {
		if st.Start == start && st.End == end && st.Split == split {
			return st.Model, true
		}
	}
	return nil, false
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
	// the two chips run two pipeline stages or one: tensor-parallel
	// stages are refused
	res, err := search(m, testIC, Config{NChips: 2, Microbatches: 8}, func(st *graph.Model) (any, float64, error) {
		if st.Ops[0].Expr.Axes[0].Size < 1024 {
			return nil, 0, errors.New("row-split stage refused")
		}
		return flopCompile(math.MaxInt64)(st)
	})
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

// TestSpaceNamesEveryStageOnce pins NewSpace's loops against the
// candidate walk: the stages NewSpace names are exactly those the
// walked candidates reach that every op of theirs takes the split of,
// each named once with its model, and Search compiles each at most
// once.
func TestSpaceNamesEveryStageOnce(t *testing.T) {
	m := chain("c", 5, 64, 64)
	m.Ops[3].Expr = expr.MatMul("odd", 63, 64, 64, dtype.FP16) // refuses 2 and 4 ways, takes 3
	cfg := Config{NChips: 4}
	sp, err := NewSpace(m, cfg)
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
		if st.Model == nil || refused(m, st.Start, st.End, st.Split) {
			t.Fatalf("stage %v named with model %v, want only the stages every op splits, each with its model", k, st.Model != nil)
		}
	}
	r := newRefSpace(sp, cfg)
	if r.capped {
		t.Fatal("5 ops over 4 chips capped the cut vectors")
	}
	reached := map[[3]int]bool{}
	r.walk(func(bounds, gv []int) error {
		for s := range gv {
			if !refused(m, bounds[s], bounds[s+1], gv[s]) {
				reached[[3]int{bounds[s], bounds[s+1], gv[s]}] = true
			}
		}
		return nil
	})
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

// refused reports whether an op of m in [start, end) refuses a
// split-way row split (the odd-row matmul of the test above).
func refused(m *graph.Model, start, end, split int) bool {
	for i := start; i < end; i++ {
		if m.Ops[i].Expr.Axes[0].Size%split != 0 {
			return true
		}
	}
	return false
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

// The candidate walk Space.Search replaced, kept as its oracle: every
// partition enumerated and priced one by one, with the FLOP-balanced
// cut windows above maxEnum cut vectors per stage count.

// maxEnum bounds how many cut vectors are enumerated per stage count
// before falling back to FLOP-balanced cut windows.
const maxEnum = 4096

// refSpace is the walk over sp's candidates: its cut vectors per stage
// count and each stage's index in sp.Stages.
type refSpace struct {
	sp               *Space
	nChips, maxSplit int
	cuts             [][][]int // cut vectors per stage count S, at S-1
	capped           bool
	index            []int // stage (start, end, split) at its slot, refusedStage when an op refuses the split, -1 unnamed
}

// refusedStage marks a stage in refSpace.index that an op refuses to
// split.
const refusedStage = -2

// slot is stage (start, end, split)'s entry in r.index: a dense table,
// since the walk looks a stage up per candidate stage.
func (r *refSpace) slot(start, end, split int) int {
	return (start*(len(r.sp.m.Ops)+1)+end)*r.maxSplit + split - 1
}

func newRefSpace(sp *Space, cfg Config) *refSpace {
	r := &refSpace{sp: sp, nChips: cfg.NChips, maxSplit: cfg.NChips}
	nOps := len(sp.m.Ops)
	r.index = make([]int, nOps*(nOps+1)*r.maxSplit)
	for i := range r.index {
		r.index[i] = -1
	}
	for S := 1; S <= min(cfg.NChips, len(sp.m.Ops)); S++ {
		cuts, capped := enumerateCuts(sp.m, S, maxEnum)
		r.capped = r.capped || capped
		r.cuts = append(r.cuts, cuts)
	}
	for i, st := range sp.Stages {
		r.index[r.slot(st.Start, st.End, st.Split)] = i
	}
	for g := 1; g <= r.maxSplit; g++ {
		for start := 0; start < nOps; start++ {
			for end := start + 1; end <= nOps; end++ {
				if _, ok := SplitExpr(sp.m.Ops[end-1].Expr, g); !ok {
					for e := end; e <= nOps; e++ {
						r.index[r.slot(start, e, g)] = refusedStage
					}
					break
				}
			}
		}
	}
	return r
}

// walk calls f on every candidate in enumeration order — stage counts
// ascending, then cut vectors, then split vectors in lexicographic
// order — with its stage bounds (0, cuts…, ops) and per-stage splits.
// Both slices are reused across calls. The walk stops at f's first
// error and returns it.
func (r *refSpace) walk(f func(bounds, splits []int) error) error {
	for si, cuts := range r.cuts {
		bounds, gv := make([]int, si+2), make([]int, si+1)
		bounds[si+1] = len(r.sp.m.Ops)
		for _, cv := range cuts {
			copy(bounds[1:], cv)
			for i := range gv {
				gv[i] = 1
			}
			for ok := true; ok; ok = nextSplit(gv, r.nChips, r.maxSplit) {
				if err := f(bounds, gv); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// refSearch prices every walked candidate by its stages' indices
// through the Compile callback plus the transfer model and returns the
// cheapest (the first enumerated on a full tie) at each pipeline depth
// of micros, index-aligned, and whether any stage count's cut vectors
// were capped. A stage compiles at most once, the first time a
// candidate reaches it.
func refSearch(ctx context.Context, sp *Space, cfg Config, micros []int, ic device.Interconnect, compile Compile) ([]*Result, bool, error) {
	r := newRefSpace(sp, cfg)
	m := sp.m
	stages := append([]Stage(nil), sp.Stages...) // filled in as they compile
	done, errs := make([]bool, len(stages)), make([]error, len(stages))
	errRefused := errors.New("op not row-splittable")
	compileStage := func(i int) error {
		if i == refusedStage {
			return errRefused
		}
		st := &stages[i]
		if done[i] {
			return errs[i]
		}
		done[i] = true
		if st.Handle, st.ComputeNs, errs[i] = compile(i); errs[i] == nil && st.Split > 1 {
			// all-gather closing a tensor-parallel stage: each chip
			// holds 1/g of every boundary output and needs the rest
			hops := float64(ic.GatherHops(st.Split))
			for op := st.Start; op < st.End; op++ {
				if !leavesStage(m, op, st.End) {
					continue
				}
				o := &m.Ops[op]
				bytes := o.Expr.TensorBytes(o.Expr.Output)
				part := bytes * int64(st.Split-1) / int64(st.Split)
				st.GatherBytes += part
				st.GatherNs += hops * ic.TransferNs(part) * float64(repeatOf(o))
			}
		}
		return errs[i]
	}

	res := &Result{}
	best := make([]*Partition, len(micros))
	var lastErr error

	// price every candidate in p, reused; bounds are its S+1 stage
	// boundaries (exclusive op indices), ascending from 0 to the op count
	p := &Partition{}
	var stageNs []float64
	if err := r.walk(func(bounds, splits []int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		res.Enumerated++
		S := len(splits)
		p.Stages, p.Boundaries, p.Chips, p.ComputeNs, stageNs = p.Stages[:0], p.Boundaries[:0], 0, 0, stageNs[:0]
		for s := 0; s < S; s++ {
			i := r.index[r.slot(bounds[s], bounds[s+1], splits[s])]
			if i == -1 {
				return fmt.Errorf("stage [%d:%d)/%d reached but never named", bounds[s], bounds[s+1], splits[s])
			}
			if err := compileStage(i); err != nil {
				res.Infeasible++
				lastErr = err
				return nil
			}
			p.Stages = append(p.Stages, stages[i])
			p.Chips += splits[s]
			p.ComputeNs += stages[i].ComputeNs
			stageNs = append(stageNs, stages[i].ComputeNs)
		}

		// pipeline boundaries: activations crossing a cut, one hop
		// (pipeline neighbours are adjacent on every topology)
		for s := 1; s < S; s++ {
			for i := bounds[s]; i < bounds[s+1]; i++ {
				o := &m.Ops[i]
				for j, src := range o.Sources {
					if src == graph.External || o.IsWeight(j) || src >= bounds[s] {
						continue
					}
					bytes := o.Expr.TensorBytes(o.Expr.Inputs[j])
					b := Boundary{
						From: sort.SearchInts(bounds, src+1) - 1, To: s,
						Op: i, Input: j, Bytes: bytes,
						Crossings: repeatOf(o),
					}
					b.Ns = float64(b.Crossings) * ic.TransferNs(bytes)
					p.Boundaries = append(p.Boundaries, b)
				}
			}
		}

		for k, micro := range micros {
			p.Microbatches = micro
			p.TotalNs, p.TransferNs, p.BubbleNs = p.Price(stageNs)
			if best[k] == nil || cheaper(p, best[k]) {
				q := *p
				q.Stages, q.Boundaries = slices.Clone(p.Stages), slices.Clone(p.Boundaries)
				best[k] = &q
			}
		}
		return nil
	}); err != nil {
		return nil, r.capped, err
	}
	if best[0] == nil {
		return nil, r.capped, &InfeasibleError{NChips: r.nChips, Tried: res.Enumerated, Err: lastErr}
	}
	out := make([]*Result, len(micros))
	for k := range micros {
		out[k] = &Result{Best: best[k], Enumerated: res.Enumerated, Infeasible: res.Infeasible}
	}
	return out, r.capped, nil
}

// enumerateCuts returns the cut vectors (S-1 ascending op indices in
// [1,nOps)) for S stages. Full enumeration when it fits the budget;
// otherwise a FLOP-balanced fallback: each cut is confined to a ±2
// window around the position where the cumulative FLOP share reaches
// its stage fraction, which keeps the candidate count bounded while
// still covering the near-balanced region where good pipelines live.
func enumerateCuts(m *graph.Model, S, budget int) ([][]int, bool) {
	nOps := len(m.Ops)
	if S == 1 {
		return [][]int{nil}, false
	}
	if new(big.Int).Binomial(int64(nOps-1), int64(S-1)).Cmp(big.NewInt(int64(budget))) <= 0 {
		var out [][]int
		cur := make([]int, 0, S-1)
		var rec func(next int)
		rec = func(next int) {
			if len(cur) == S-1 {
				out = append(out, append([]int(nil), cur...))
				return
			}
			// leave room for the remaining cuts
			for c := next; c <= nOps-(S-1-len(cur)); c++ {
				cur = append(cur, c)
				rec(c + 1)
				cur = cur[:len(cur)-1]
			}
		}
		rec(1)
		return out, false
	}

	// balanced-window fallback
	prefix := make([]float64, nOps+1)
	for i := range m.Ops {
		prefix[i+1] = prefix[i] + float64(m.Ops[i].Expr.FLOPs()*int64(repeatOf(&m.Ops[i])))
	}
	total := prefix[nOps]
	const w = 2
	windows := make([][]int, S-1)
	for c := 1; c < S; c++ {
		target := total * float64(c) / float64(S)
		pos := 1
		for pos < nOps && prefix[pos] < target {
			pos++
		}
		for d := -w; d <= w; d++ {
			if p := pos + d; p >= 1 && p <= nOps-1 {
				windows[c-1] = append(windows[c-1], p)
			}
		}
	}
	var out [][]int
	cur := make([]int, 0, S-1)
	var rec func(ci int)
	rec = func(ci int) {
		if ci == S-1 {
			out = append(out, append([]int(nil), cur...))
			return
		}
		for _, p := range windows[ci] {
			if len(cur) > 0 && p <= cur[len(cur)-1] {
				continue
			}
			cur = append(cur, p)
			rec(ci + 1)
			cur = cur[:len(cur)-1]
		}
	}
	rec(0)
	return out, true
}

// nextSplit advances gv to the next per-stage chip assignment in
// lexicographic order — g_s in [1,maxSplit], Σ g_s ≤ nChips (a
// partition may leave chips idle) — and reports whether there is one;
// the walk starts at all ones. It bumps the last stage that can take
// one more chip with every later stage back at one.
func nextSplit(gv []int, nChips, maxSplit int) bool {
	sum := 0
	for _, g := range gv {
		sum += g
	}
	for s := len(gv) - 1; s >= 0; s-- {
		if gv[s] < maxSplit && sum < nChips {
			gv[s]++
			return true
		}
		sum -= gv[s] - 1
		gv[s] = 1
	}
	return false
}

// describe prints a partition's total, chips and stages.
func describe(p *Partition) string {
	if p == nil {
		return "none"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%v ns on %d chips:", p.TotalNs, p.Chips)
	for _, st := range p.Stages {
		fmt.Fprintf(&b, " [%d:%d)/%d", st.Start, st.End, st.Split)
	}
	return b.String()
}

// samePartition reports whether p and q cut and split the model alike.
func samePartition(p, q *Partition) bool {
	if len(p.Stages) != len(q.Stages) {
		return false
	}
	for s := range p.Stages {
		a, b := p.Stages[s], q.Stages[s]
		if a.Start != b.Start || a.End != b.End || a.Split != b.Split {
			return false
		}
	}
	return true
}

// matchRef searches sp at each pipeline depth of micros with Search
// and with refSearch and requires them to agree: where the walk
// enumerated every candidate, on the counters, the winner's chips and
// stage count, and its TotalNs within 1e-12 relative (bit for bit when
// it is the same partition); where the walk's cuts were capped, the
// search must find a partition no dearer. It reports whether the walk
// was capped.
func matchRef(t testing.TB, what string, sp *Space, cfg Config, micros []int, ic device.Interconnect, compile Compile) bool {
	t.Helper()
	wants, capped, wantErr := refSearch(context.Background(), sp, cfg, micros, ic, compile)
	for k, micro := range micros {
		var want *Result
		if wantErr == nil {
			want = wants[k]
		}
		at := *sp
		at.micro = max(micro, 1)
		matchOne(t, fmt.Sprintf("%s, M=%d", what, micro), &at, compile, ic, want, capped, wantErr)
	}
	return capped
}

// matchOne checks one search of sp against the walk's outcome at the
// same pipeline depth.
func matchOne(t testing.TB, what string, sp *Space, compile Compile, ic device.Interconnect, want *Result, capped bool, wantErr error) {
	t.Helper()
	got, gotErr := sp.Search(context.Background(), ic, compile)
	var gotIE, wantIE *InfeasibleError
	switch {
	case gotErr != nil && !errors.As(gotErr, &gotIE), wantErr != nil && !errors.As(wantErr, &wantIE):
		t.Fatalf("%s: search err %v, walk err %v", what, gotErr, wantErr)
	case gotErr != nil && wantErr != nil:
		if !capped && gotIE.Tried != wantIE.Tried {
			t.Errorf("%s: infeasible after %d candidates, the walk tried %d", what, gotIE.Tried, wantIE.Tried)
		}
		return
	case gotErr != nil:
		t.Fatalf("%s: search found no partition, the walk found %s", what, describe(want.Best))
	case wantErr != nil:
		if !capped {
			t.Fatalf("%s: search found %s, the walk none", what, describe(got.Best))
		}
		return
	}
	g, w := got.Best, want.Best
	if capped {
		if g.TotalNs > w.TotalNs*(1+1e-12) {
			t.Errorf("%s: capped walk found %s, search only %s", what, describe(w), describe(g))
		} else if g.TotalNs < w.TotalNs {
			t.Logf("%s: %.2f%% cheaper than the capped walk: %s, the walk %s",
				what, 100*(1-g.TotalNs/w.TotalNs), describe(g), describe(w))
		}
		return
	}
	if got.Enumerated != want.Enumerated || got.Infeasible != want.Infeasible {
		t.Errorf("%s: counted %d candidates / %d infeasible, the walk %d / %d",
			what, got.Enumerated, got.Infeasible, want.Enumerated, want.Infeasible)
	}
	same := samePartition(g, w)
	if g.Chips != w.Chips || len(g.Stages) != len(w.Stages) ||
		math.Abs(g.TotalNs-w.TotalNs) > 1e-12*math.Abs(w.TotalNs) || same && g.TotalNs != w.TotalNs {
		t.Errorf("%s: search picked %s, the walk %s", what, describe(g), describe(w))
	}
	if same && (g.TransferNs != w.TransferNs || g.BubbleNs != w.BubbleNs || g.ComputeNs != w.ComputeNs ||
		!slices.Equal(g.Boundaries, w.Boundaries)) {
		t.Errorf("%s: same partition %s priced apart: %+v vs %+v", what, describe(g), g, w)
	}
}

// fuzzModel builds an n-op chain whose op i reads op i−1; where bit i of
// joins is set (i ≥ 2) op i is an elementwise join that also reads an
// earlier op, a skip connection. Row counts vary, so some ops refuse
// some splits. Every width is a multiple of 105 = 3·5·7, so with
// stage prices and link latency in multiples of 105 too, every term
// Partition.Price adds, divided by M ≤ 8, is a small dyadic rational
// and every sum is exact: ties are true ties in both searches.
func fuzzModel(n int, joins uint16, seed uint64) *graph.Model {
	m := &graph.Model{Name: "fuzz", BatchSize: 1}
	for i := 0; i < n; i++ {
		h := mix(seed, i, 0, 0)
		rows := []int{60, 12, 8, 30}[h%4]
		dim := 105 * int(1+h>>8%3)
		op := graph.Op{Name: fmt.Sprintf("op%d", i), Repeat: int(1 + h>>16%2)}
		src := i - 1
		if i == 0 {
			src = graph.External
		}
		if i >= 2 && joins>>i&1 == 1 {
			op.Expr = expr.EltwiseBinary(op.Name, rows, dim, dtype.FP16)
			op.Sources = []int{src, int(h >> 24 % uint64(i-1))}
		} else {
			op.Expr = expr.MatMul(op.Name, rows, dim, dim, dtype.FP16)
			op.Sources, op.WeightInputs = []int{src, graph.External}, []int{1}
		}
		m.Ops = append(m.Ops, op)
	}
	return m
}

// mix is splitmix64 over a seed and three small keys.
func mix(seed uint64, a, b, c int) uint64 {
	z := seed ^ uint64(a)<<42 ^ uint64(b)<<21 ^ uint64(c)
	z += 0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// FuzzPartitionSearch holds the search to the candidate walk on small
// chain and skip-connection models: stage prices drawn from a stub that
// also refuses stages (every one of them when bad%8 == 1), over every
// chip count, pipeline depth and topology.
func FuzzPartitionSearch(f *testing.F) {
	f.Add(uint8(4), uint8(4), uint8(1), uint8(0), uint16(0), uint64(1), uint8(0), uint8(5))
	f.Add(uint8(9), uint8(6), uint8(4), uint8(1), uint16(0x2a4), uint64(7), uint8(3), uint8(1))
	f.Add(uint8(7), uint8(5), uint8(8), uint8(2), uint16(0xff), uint64(42), uint8(5), uint8(0))
	f.Add(uint8(6), uint8(3), uint8(3), uint8(0), uint16(0x14), uint64(99), uint8(1), uint8(2))
	f.Add(uint8(9), uint8(6), uint8(7), uint8(1), uint16(0x3fc), uint64(2024), uint8(2), uint8(9))
	f.Add(uint8(0), uint8(0), uint8(2), uint8(2), uint16(0), uint64(5), uint8(4), uint8(3))
	// the winner here is found only at the last threshold the early stop reaches
	f.Add(uint8(68), uint8(59), uint8(60), uint8(2), uint16(300), uint64(42), uint8(5), uint8(102))
	f.Fuzz(func(t *testing.T, ops, chips, micro, topo uint8, joins uint16, seed uint64, bad, lat uint8) {
		m := fuzzModel(1+int(ops%10), joins, seed)
		cfg := Config{NChips: 1 + int(chips%6)}
		ic := device.Interconnect{LinkGBps: 1, LatencyNs: 105 * float64(lat%16), Topology: device.Topology(topo % 3)}
		sp, err := NewSpace(m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		refuse := uint64(bad % 8)
		compile := func(i int) (any, float64, error) {
			st := sp.Stages[i]
			h := mix(seed, st.Start, st.End, st.Split)
			if refuse > 0 && h>>32%refuse == 0 {
				return nil, 0, fmt.Errorf("stage [%d:%d)/%d refused", st.Start, st.End, st.Split)
			}
			return nil, 105 * float64(1+h%2000), nil
		}
		what := fmt.Sprintf("%d ops joins %#x, %+v, %v", len(m.Ops), joins, cfg, ic)
		if matchRef(t, what, sp, cfg, []int{1 + int(micro%8)}, ic, compile) {
			t.Fatalf("%s: the walk capped its cuts", what)
		}
	})
}

// TestCountsSaturate pins the counters at math.MaxInt where the
// candidates outnumber it: a 31-op chain over 64 chips has
// Σ_S C(64,S)·C(30,S−1) = C(94,31) ≈ 1.4e25 of them.
func TestCountsSaturate(t *testing.T) {
	sp, err := NewSpace(chain("c", 31, 64, 64), Config{NChips: 64})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sp.Search(context.Background(), testIC, func(i int) (any, float64, error) {
		return nil, float64(sp.Stages[i].Model.FLOPs()), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// splits that do not divide the 64 rows are refused, so candidates
	// with an infeasible stage outnumber math.MaxInt too
	if res.Enumerated != math.MaxInt || res.Infeasible != math.MaxInt {
		t.Fatalf("Enumerated = %d, Infeasible = %d, want both saturated at %d", res.Enumerated, res.Infeasible, math.MaxInt)
	}
	_, err = sp.Search(context.Background(), testIC, func(int) (any, float64, error) {
		return nil, 0, errors.New("does not fit")
	})
	var ie *InfeasibleError
	if !errors.As(err, &ie) || ie.Tried != math.MaxInt {
		t.Fatalf("err = %v, want *InfeasibleError having tried %d", err, math.MaxInt)
	}
}
