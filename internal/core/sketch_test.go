package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/device"
	"repro/internal/dtype"
	"repro/internal/expr"
)

// randFts draws a temporal-factor assignment that is valid often enough
// to exercise both outcomes: roughly half the draws hit a NewPlan error
// (non-divisor products, factors on compound or strided dims, factors on
// the output).
func randFts(rng *rand.Rand, e *expr.Expr) [][]int {
	tensors := e.Tensors()
	if rng.Intn(8) == 0 {
		return nil
	}
	fts := make([][]int, len(tensors))
	vals := []int{1, 1, 1, 2, 2, 3, 4, 6, 8}
	for ti, tr := range tensors {
		switch rng.Intn(4) {
		case 0:
			continue // nil: no temporal factors
		case 1:
			if ti == len(tensors)-1 {
				continue
			}
		}
		ft := make([]int, len(tr.Dims))
		for d := range ft {
			ft[d] = vals[rng.Intn(len(vals))]
		}
		fts[ti] = ft
	}
	return fts
}

// sketchOps are the operator shapes the sketch property tests draw
// candidates for: plain, odd-sized and batched matmuls, convolutions
// (compound and strided dims), gather, reduction, pooling, and the two
// fused forms (an epilogue fold and a chained contraction).
func sketchOps(t *testing.T) []*expr.Expr {
	t.Helper()
	ffn1 := expr.MatMul("ffn1", 8, 48, 96, dtype.FP16)
	withEpi := compose(t, func() (*expr.Expr, error) {
		return expr.ComposeEpilogue(ffn1, expr.Elementwise("gelu", 8, 96, 8, dtype.FP16), 0)
	})
	chained := compose(t, func() (*expr.Expr, error) {
		return expr.ComposeContraction(withEpi, expr.MatMul("ffn2", 8, 96, 48, dtype.FP16), 0)
	})
	return []*expr.Expr{
		expr.MatMul("mm", 96, 48, 64, dtype.FP16),
		expr.MatMul("mm-odd", 97, 53, 64, dtype.FP32),
		expr.BatchMatMul("bmm", 6, 24, 16, 32, dtype.FP16),
		expr.Conv2D("conv", 4, 8, 8, 12, 12, 3, 3, 1, dtype.FP16),
		expr.Conv2D("conv-s2", 2, 8, 8, 12, 12, 3, 3, 2, dtype.FP16),
		expr.GatherOp("emb", 64, 500, 32, dtype.FP16),
		expr.ReduceSum("sum", 64, 96, dtype.FP16),
		expr.Pool2D("pool", 4, 8, 12, 12, 2, 2, 2, dtype.FP16),
		withEpi,
		chained,
	}
}

// randFop fills fop with mostly divisors and small factors,
// occasionally wild ones.
func randFop(rng *rand.Rand, e *expr.Expr, fop []int) {
	for a, ax := range e.Axes {
		switch rng.Intn(3) {
		case 0:
			fop[a] = 1
		case 1:
			fop[a] = 1 + rng.Intn(ax.Size)
		default:
			fop[a] = []int{1, 2, 3, 4, 8}[rng.Intn(5)]
		}
	}
}

// checkSketchAgainstPlan asserts the finished sketch's results against
// the plan NewPlan built for the same candidate.
func checkSketchAgainstPlan(t *testing.T, ps *PlanSketch, p *Plan, cm *costmodel.Set, fop []int, fts [][]int) {
	t.Helper()
	e := p.Expr
	if ps.MemPerCore != p.MemPerCore() {
		t.Fatalf("%s: sketch mem %d != plan mem %d (fop=%v fts=%v)",
			e.Name, ps.MemPerCore, p.MemPerCore(), fop, fts)
	}
	if ps.Cores != p.Cores || ps.TotalSteps != p.TotalSteps {
		t.Fatalf("%s: sketch cores/steps %d/%d != plan %d/%d (fop=%v fts=%v)",
			e.Name, ps.Cores, ps.TotalSteps, p.Cores, p.TotalSteps, fop, fts)
	}
	if !reflect.DeepEqual(ps.SubLen, p.SubLen) {
		t.Fatalf("%s: sketch SubLen %v != plan %v (fop=%v fts=%v)",
			e.Name, ps.SubLen, p.SubLen, fop, fts)
	}
	// the byte counts Finish's one pass fills for both leaf pricings
	steps := ps.pMax[len(ps.tensors)]
	if got, want := ps.leafTask(steps), p.KernelTask(); got != want {
		t.Fatalf("%s: sketch task %+v != plan task %+v (fop=%v fts=%v)", e.Name, got, want, fop, fts)
	}
	for a, s := range steps {
		if s > 1 && (ps.tile[a] != p.ShiftTileBytes(a) || ps.iters[a] != p.shiftIters(a)) {
			t.Fatalf("%s: axis %d shift tile/copies %d/%d != plan %d/%d (fop=%v fts=%v)",
				e.Name, a, ps.tile[a], ps.iters[a], p.ShiftTileBytes(a), p.shiftIters(a), fop, fts)
		}
	}
	pred := cm.Resolve(e.Name, e.Kind)
	lb := ps.LowerBoundNs(cm.Spec, pred)
	if est := p.EstimateWith(cm.Spec, pred); est.TotalNs > 0 && lb >= est.TotalNs {
		t.Fatalf("%s: lower bound %g not below estimate %g (fop=%v fts=%v)",
			e.Name, lb, est.TotalNs, fop, fts)
	}
}

// TestSketchMatchesNewPlan is the pruning-safety contract: over random
// (Fop, fts) candidates — valid and invalid — the sketch must agree with
// NewPlan on validity, agree exactly on per-core memory, and bound a
// positive full estimate strictly from below.
func TestSketchMatchesNewPlan(t *testing.T) {
	cm := newTestCostModel(t)
	cfg := DefaultConfig()
	rng := rand.New(rand.NewSource(42))
	valid, invalid := 0, 0
	for _, e := range sketchOps(t) {
		ps := NewPlanSketch(e, cfg)
		fop := make([]int, len(e.Axes))
		for iter := 0; iter < 3000; iter++ {
			randFop(rng, e, fop)
			fts := randFts(rng, e)
			ok := ps.Compute(fop, fts)
			p, err := NewPlan(e, fop, fts, cfg)
			if ok != (err == nil) {
				t.Fatalf("%s: sketch ok=%t but NewPlan err=%v (fop=%v fts=%v)",
					e.Name, ok, err, fop, fts)
			}
			if !ok {
				invalid++
				continue
			}
			valid++
			checkSketchAgainstPlan(t, ps, p, cm, fop, fts)
		}
	}
	if valid < 1000 || invalid < 1000 {
		t.Fatalf("generator imbalance: %d valid, %d invalid — property undertested", valid, invalid)
	}
}

// TestFinishFromPrefixMatchesNewPlan drives the sketch the way the
// f_t recursion does. Each candidate A is reached after a sibling: the
// first k tensors take A's factors, the rest take another draw B's as
// far as Fix lets them (finished and bounded when they all fix, so the
// leaf scratch is dirty too), then the sketch is unwound to depth k and
// completed with A's own factors. Finish must then agree with NewPlan
// on A exactly as a one-shot Compute does — nothing of the abandoned
// sibling may leak into the results.
func TestFinishFromPrefixMatchesNewPlan(t *testing.T) {
	cm := newTestCostModel(t)
	cfg := DefaultConfig()
	rng := rand.New(rand.NewSource(1812))
	valid, invalid, refixed := 0, 0, 0
	for _, e := range sketchOps(t) {
		ps := NewPlanSketch(e, cfg)
		pred := cm.Resolve(e.Name, e.Kind)
		fop := make([]int, len(e.Axes))
		for iter := 0; iter < 3000; iter++ {
			randFop(rng, e, fop)
			ftsA, ftsB := randFts(rng, e), randFts(rng, e)
			p, planErr := NewPlan(e, fop, ftsA, cfg)
			ok, re := finishAfterSibling(ps, cm.Spec, pred, fop, ftsA, ftsB, rng.Intn(len(e.Tensors())))
			if re {
				refixed++
			}
			if ok != (planErr == nil) {
				t.Fatalf("%s: prefix-finished sketch ok=%t but NewPlan err=%v (fop=%v fts=%v after %v)",
					e.Name, ok, planErr, fop, ftsA, ftsB)
			}
			if !ok {
				invalid++
				continue
			}
			valid++
			checkSketchAgainstPlan(t, ps, p, cm, fop, ftsA)
		}
	}
	if valid < 1000 || invalid < 1000 || refixed < 1000 {
		t.Fatalf("generator imbalance: %d valid, %d invalid, %d re-fixed after a sibling — property undertested",
			valid, invalid, refixed)
	}
}

// finishAfterSibling drives the sketch the way the f_t recursion does:
// the first k tensors take ftsA's factors, the rest take ftsB's as far
// as Fix lets them (finished, bounded and priced when they all fix, so
// the leaf scratch is dirty too), then the sketch unwinds to depth k and
// completes with ftsA's own factors. It reports whether A finished, and
// whether a sibling tensor was fixed on the way.
func finishAfterSibling(ps *PlanSketch, spec *device.Spec, pred costmodel.Predictor, fop []int, ftsA, ftsB [][]int, k int) (ok, refixed bool) {
	nt := len(ps.tensors)
	// fix extends the prefix with tensors from..to-1 of fts, stopping at
	// the first rejection, and returns the depth reached
	fix := func(from, to int, fts [][]int) int {
		for ti := from; ti < to; ti++ {
			if !ps.Fix(ftOf(fts, ti)) {
				return ti
			}
		}
		return to
	}
	if !ps.Begin(fop) || fix(0, k, ftsA) != k {
		return false, false
	}
	depth := fix(k, nt, ftsB) // the sibling, visited first
	if depth == nt && ps.Finish() {
		ps.LowerBoundNs(spec, pred)
		ps.Estimate(spec, pred)
	}
	refixed = depth > k
	for ; depth > k; depth-- {
		ps.Unfix()
	}
	return fix(k, nt, ftsA) == nt && ps.Finish(), refixed
}

// sameEstimateBits reports whether two estimates agree field for field,
// floats compared by their bits.
func sameEstimateBits(a, b Estimate) bool {
	fa := [...]float64{a.ComputeNs, a.ShiftNs, a.AllReduceNs, a.SyncNs, a.TotalNs}
	fb := [...]float64{b.ComputeNs, b.ShiftNs, b.AllReduceNs, b.SyncNs, b.TotalNs}
	for i := range fa {
		if math.Float64bits(fa[i]) != math.Float64bits(fb[i]) {
			return false
		}
	}
	return a.Steps == b.Steps && a.MemPerCore == b.MemPerCore && a.ShiftBytesPerCore == b.ShiftBytesPerCore
}

// TestSketchEstimateMatchesPlan is the contract the search's pricing
// rests on: a leaf priced on the sketch — reached, as in the recursion,
// after an abandoned sibling was fixed, finished and priced — carries
// exactly the estimate NewPlan + EstimateWith gives it, bit for bit,
// and its lower bound stays strictly below a positive one (the 1e-9
// scale that keeps a leaf from pruning its exact twin). Candidates are
// random matmuls, convolutions (1×1 to 7×7, stride 1 and 2) and
// gathers, and the batched, reduction, pooling and fused shapes of
// sketchOps.
func TestSketchEstimateMatchesPlan(t *testing.T) {
	cm := newTestCostModel(t)
	cfg := DefaultConfig()
	rng := rand.New(rand.NewSource(17))
	ops := sketchOps(t)
	data := make([]byte, 40)
	priced := make(map[expr.OpKind]int)
	refixed, fused := 0, 0
	for iter := 0; iter < 20000; iter++ {
		var e *expr.Expr
		var fop []int
		var fts [][]int
		if iter%2 == 0 {
			rng.Read(data)
			e, fop, fts, _ = paddingCandidate(&byteSrc{data: data})
		} else {
			e = ops[rng.Intn(len(ops))]
			fop = make([]int, len(e.Axes))
			randFop(rng, e, fop)
			fts = randFts(rng, e)
		}
		p, err := NewPlan(e, fop, fts, cfg)
		if err != nil {
			continue
		}
		pred := cm.Resolve(e.Name, e.Kind)
		ps := NewPlanSketch(e, cfg)
		ok, re := finishAfterSibling(ps, cm.Spec, pred, fop, fts, randFts(rng, e), rng.Intn(len(e.Tensors())))
		if !ok {
			t.Fatalf("%s: sketch rejected a NewPlan-valid candidate (fop=%v fts=%v)", e.Name, fop, fts)
		}
		got, want := ps.Estimate(cm.Spec, pred), p.EstimateWith(cm.Spec, pred)
		if !sameEstimateBits(got, want) {
			t.Fatalf("%s: sketch estimate %+v != plan estimate %+v (fop=%v fts=%v)", e.Name, got, want, fop, fts)
		}
		if lb := ps.LowerBoundNs(cm.Spec, pred); got.TotalNs > 0 && lb >= got.TotalNs {
			t.Fatalf("%s: lower bound %g not below estimate %g (fop=%v fts=%v)", e.Name, lb, got.TotalNs, fop, fts)
		}
		priced[e.Kind]++
		if re {
			refixed++
		}
		if e.EpiloguePerPoint != 0 || len(e.ChainAxes) > 0 {
			fused++
		}
	}
	t.Logf("priced %v, %d fused, %d after a re-fixed sibling", priced, fused, refixed)
	for _, k := range []expr.OpKind{expr.KindMatMul, expr.KindConv, expr.KindGather} {
		if priced[k] < 1000 {
			t.Fatalf("only %d %v candidates priced — property undertested", priced[k], k)
		}
	}
	if fused < 300 || refixed < 1000 {
		t.Fatalf("%d fused and %d re-fixed candidates — property undertested", fused, refixed)
	}
}

// TestSketchLeafPathDoesNotAllocate guards the claim the search's
// per-leaf cost rests on: one full descent — Begin, Fix per tensor,
// BeginScreen and Screen before the last input, Finish, LowerBoundNs,
// Estimate, Unfix per tensor — touches only the sketch's own scratch,
// for a matmul, a convolution (window axes) and a chained contraction
// (chain axes) alike: the kernel task comes from the per-expression
// role table, not from per-leaf dim scans, and the loop order is sorted
// in place. The padding rule is on, as in the search, and the predictor
// and its work floor are the shipped fitted model the search calls
// directly. A Fop whose prefixes pad to more extents than the
// work-line memo holds screens without allocating too.
func TestSketchLeafPathDoesNotAllocate(t *testing.T) {
	cm := newTestCostModel(t)
	ops := sketchOps(t)
	for _, tc := range []struct {
		e   *expr.Expr
		fop []int
		fts [][]int
	}{
		{expr.MatMul("mm", 128, 64, 64, dtype.FP16), []int{8, 1, 8}, [][]int{{1, 8}, {8, 1}, nil}},
		{expr.Conv2D("conv", 4, 16, 16, 14, 14, 3, 3, 1, dtype.FP16),
			[]int{4, 4, 1, 2, 1, 1, 1}, [][]int{{1, 4, 1, 1}, {1, 2, 1, 1}, nil}},
		{ops[len(ops)-1], nil, nil}, // chained; fop filled with ones below
	} {
		e, fop, fts := tc.e, tc.fop, tc.fts
		if fop == nil {
			fop = make([]int, len(e.Axes))
			for a := range fop {
				fop[a] = 1
			}
			fts = make([][]int, len(e.Tensors()))
		}
		ps := NewPlanSketch(e, DefaultConfig())
		ps.PaddingMin = 0.9
		pred := cm.Resolve(e.Name, e.Kind)
		work := costmodel.WorkFloor(pred)
		if work == nil {
			t.Fatalf("%s: the shipped fit declares no work floor", e.Name)
		}
		var lb float64
		var est Estimate
		allocs := testing.AllocsPerRun(100, func() {
			if !ps.Begin(fop) {
				t.Fatalf("%s: Begin rejected a valid Fop", e.Name)
			}
			for ti, ft := range fts {
				if ti == len(fts)-2 {
					ps.BeginScreen(cm.Spec, work, 0)
					ps.Screen(ft)
				}
				if !ps.Fix(ft) {
					t.Fatalf("%s: Fix rejected a valid assignment", e.Name)
				}
			}
			if !ps.Finish() {
				t.Fatalf("%s: Finish rejected a valid assignment", e.Name)
			}
			lb = ps.LowerBoundNs(cm.Spec, pred)
			est = ps.Estimate(cm.Spec, pred)
			for range fts {
				ps.Unfix()
			}
		})
		if allocs != 0 {
			t.Errorf("%s: a leaf descent allocates %.0f times, want 0", e.Name, allocs)
		}
		if lb <= 0 || lb >= est.TotalNs {
			t.Errorf("%s: lower bound %g, want in (0, %g)", e.Name, lb, est.TotalNs)
		}
	}

	ps := NewPlanSketch(wideMatMul, DefaultConfig())
	work := costmodel.WorkFloor(cm.Resolve(wideMatMul.Name, wideMatMul.Kind))
	firsts := make([][]int, len(wideFactors))
	for i, f := range wideFactors {
		firsts[i] = []int{f, 1}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if !ps.Begin(wideFop) {
			t.Fatalf("%s: Begin rejected a valid Fop", wideMatMul.Name)
		}
		for _, ft := range firsts {
			if !ps.Fix(ft) {
				t.Fatalf("%s: Fix rejected %v", wideMatMul.Name, ft)
			}
			ps.BeginScreen(cm.Spec, work, 0)
			ps.Screen(nil)
			ps.Unfix()
		}
	})
	if allocs != 0 || ps.lineN != len(ps.lineExt) {
		t.Errorf("%s: screens past a full work-line memo (%d entries) allocate %.0f times, want a full memo and 0",
			wideMatMul.Name, ps.lineN, allocs)
	}
}

// TestPartialBoundsAreAdmissible is the subtree-pruning safety
// contract: over random (Fop, fts) candidates, fixing the temporal
// factors one tensor at a time, every prefix's PartialMemLB and
// PartialTimeLB must bound the completed plan's exact memory and full
// estimate from below — and a Fix that rejects a prefix implies NewPlan
// rejects the completion.
func TestPartialBoundsAreAdmissible(t *testing.T) {
	cm := newTestCostModel(t)
	cfg := DefaultConfig()
	rng := rand.New(rand.NewSource(7))
	checked, rejected, floored := 0, 0, 0
	for _, e := range sketchOps(t) {
		ps := NewPlanSketch(e, cfg)
		pred := cm.Resolve(e.Name, e.Kind)
		work := costmodel.WorkFloor(pred)
		tensors := e.Tensors()
		fop := make([]int, len(e.Axes))
		for iter := 0; iter < 2000; iter++ {
			randFop(rng, e, fop)
			fts := randFts(rng, e)
			// the per-tensor split each completion actually uses, for the
			// remaining-footprint term
			splits := make([]int, len(tensors))
			for ti := range tensors {
				splits[ti] = 1
				if fts != nil && fts[ti] != nil {
					for _, f := range fts[ti] {
						splits[ti] *= f
					}
				}
			}
			p, planErr := NewPlan(e, fop, fts, cfg)
			if !ps.Begin(fop) {
				if planErr == nil {
					t.Fatalf("%s: Begin rejected the fop of a NewPlan-valid candidate %v", e.Name, fop)
				}
				rejected++
				continue
			}

			fixedAll, tight := true, 0
			var memLBs []int64
			var timeLBs []float64
			for ti := range tensors {
				var ft []int
				if fts != nil {
					ft = fts[ti]
				}
				if !ps.Fix(ft) {
					fixedAll = false
					if planErr == nil {
						t.Fatalf("%s: Fix rejected tensor %d of a NewPlan-valid candidate (fop=%v fts=%v)",
							e.Name, ti, fop, fts)
					}
					break
				}
				var rest int64
				for tj := ti + 1; tj < len(tensors); tj++ {
					rest += ps.TensorMinBytes(tj, splits[tj])
				}
				memLBs = append(memLBs, ps.PartialMemLB(rest))
				noneLB, workLB := ps.PartialTimeLB(cm.Spec, nil), ps.PartialTimeLB(cm.Spec, work)
				timeLBs = append(timeLBs, noneLB, workLB)
				if workLB > noneLB {
					tight++
				}
			}
			if !fixedAll {
				rejected++
				continue
			}
			if planErr != nil {
				continue // invalid for other reasons the prefix cannot see
			}
			checked++
			floored += tight
			mem := p.MemPerCore()
			total := p.EstimateWith(cm.Spec, pred).TotalNs
			for d := range memLBs {
				if memLBs[d] > mem {
					t.Fatalf("%s: depth %d mem bound %d exceeds plan mem %d (fop=%v fts=%v)",
						e.Name, d, memLBs[d], mem, fop, fts)
				}
			}
			for i, lb := range timeLBs {
				if lb > total {
					t.Fatalf("%s: depth %d time bound %g (#%d: none/work floor) exceeds estimate %g (fop=%v fts=%v)",
						e.Name, i/2, lb, i%2, total, fop, fts)
				}
			}
		}
	}
	if checked < 500 || rejected < 500 {
		t.Fatalf("generator imbalance: %d checked, %d rejected — property undertested", checked, rejected)
	}
	if floored < 500 {
		t.Fatalf("only %d bounds raised by the work floor — the WorkLB compute floor is undertested", floored)
	}
	t.Logf("%d checked, %d rejected, %d bounds raised by the work floor", checked, rejected, floored)
}

// TestEstimateWithMatchesEstimate pins the pre-resolved-predictor path
// to the map-lookup path.
func TestEstimateWithMatchesEstimate(t *testing.T) {
	cm := newTestCostModel(t)
	e := expr.MatMul("mm", 128, 64, 64, dtype.FP16)
	p, err := NewPlan(e, []int{8, 1, 8}, [][]int{{1, 8}, {8, 1}, nil}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	a := p.Estimate(cm)
	b := p.EstimateWith(cm.Spec, cm.Resolve(e.Name, e.Kind))
	if a != b {
		t.Fatalf("Estimate %+v != EstimateWith %+v", a, b)
	}
}
