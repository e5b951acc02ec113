package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/dtype"
	"repro/internal/expr"
	"repro/internal/kernel"
)

// wideMatMul's Fop {1, 1, 720} lets the first input take any divisor
// of 720 on m, and m = 97 pads to a different extent under each of
// wideFactors: more distinct padded extents than the work-line memo
// holds.
var (
	wideMatMul  = expr.MatMul("mm-wide", 97, 53, 720, dtype.FP16)
	wideFop     = []int{1, 1, 720}
	wideFactors = []int{2, 3, 4, 6, 8, 12, 15, 16, 24}
)

// TestWorkLineMemoMatchesFresh holds the work-floor line memo to a
// fresh sketch. One long-lived sketch per operator serves many Begins,
// every other one at the previous Fop under a new PaddingMin (which
// moves a convolution's window cap, so a memo kept across Begin would
// show); each Begin switches once between the shipped fit and a
// calibrated refit, starting with the one the last Begin ended with;
// and one Fop pads to more extents than the memo holds. Every
// PartialTimeLB, BeginScreen and Screen result must equal a fresh
// sketch's at the same prefix bit for bit.
func TestWorkLineMemoMatchesFresh(t *testing.T) {
	shipped, calibrated := newTestCostModel(t), newCalibratedCostModel(t)
	spec := shipped.Spec
	rng := rand.New(rand.NewSource(32))
	compared := map[bool]int{} // by predictor: calibrated or not
	maxDistinct := 0
	for _, e := range append(sketchOps(t), wideMatMul) {
		var works []costmodel.WorkLB
		for _, cm := range []*costmodel.Set{shipped, calibrated} {
			if w := costmodel.WorkFloor(cm.Resolve(e.Name, e.Kind)); w != nil {
				works = append(works, w)
			}
		}
		tensors := e.Tensors()
		last := len(tensors) - 2
		ps := NewPlanSketch(e, DefaultConfig())
		fop := make([]int, len(e.Axes))
		distinct := map[string]bool{}

		// descend fixes fts input by input on ps and compares every bound
		// of each prefix under w with a fresh sketch's.
		descend := func(fts [][]int, w costmodel.WorkLB) {
			cal := w != costmodel.WorkLB(shipped.Model(e.Kind))
			depth := 0
			for ; depth <= last; depth++ {
				compared[cal]++
				ns := ps.PartialTimeLB(spec, w)
				distinct[fmt.Sprint(ps.pExt)] = true
				ref := freshAt(e, ps.PaddingMin, fop, fts[:depth])
				if ref == nil {
					t.Fatalf("%s: a fresh sketch rejects fop=%v prefix=%v", e.Name, fop, fts[:depth])
				}
				sameBounds(t, e.Name+" PartialTimeLB", 0, ns, 0, ref.PartialTimeLB(spec, w))
				if depth == last {
					mem, ns := ps.BeginScreen(spec, w, 0)
					refMem, refNs := ref.BeginScreen(spec, w, 0)
					sameBounds(t, e.Name+" BeginScreen", mem, ns, refMem, refNs)
					for _, c := range lastInputCombos(tensors[last], ps.ShareP(last), 16) {
						mem, ns := ps.Screen(c)
						refMem, refNs := ref.Screen(c)
						sameBounds(t, e.Name+" Screen", mem, ns, refMem, refNs)
					}
					break
				}
				if !ps.Fix(fts[depth]) {
					break
				}
			}
			for ; depth > 0; depth-- {
				ps.Unfix()
			}
		}

		for begin := 0; begin < 40; begin++ {
			if begin%2 == 0 {
				randFop(rng, e, fop)
			}
			ps.PaddingMin = []float64{0, 0.5, 0.9}[rng.Intn(3)]
			clear(distinct)
			if !ps.Begin(fop) {
				continue
			}
			// half the draws under each predictor, the first half under
			// the one the last Begin ended with
			for draw := 0; draw < 8; draw++ {
				fts := randFts(rng, e)
				if fts == nil {
					fts = make([][]int, len(tensors))
				}
				descend(fts, works[(begin+draw/4)%len(works)])
			}
			maxDistinct = max(maxDistinct, len(distinct))
		}
		if e != wideMatMul {
			continue
		}
		copy(fop, wideFop)
		ps.PaddingMin = 0
		clear(distinct)
		if !ps.Begin(fop) {
			t.Fatalf("%s: Begin rejected %v", e.Name, fop)
		}
		for round := 0; round < 2; round++ { // the second hits the memo, but for the last extent
			for _, f := range wideFactors {
				descend([][]int{{f, 1}, nil, nil}, works[0])
			}
		}
		maxDistinct = max(maxDistinct, len(distinct))
	}
	t.Logf("compared: shipped %d, calibrated %d prefixes; at most %d padded extents under one Begin",
		compared[false], compared[true], maxDistinct)
	if compared[false] < 1000 || compared[true] < 1000 {
		t.Fatalf("only %v prefixes compared by predictor — the memo is undertested", compared)
	}
	if maxDistinct <= len(PlanSketch{}.lineExt) {
		t.Fatalf("at most %d padded extents under one Begin: the full memo is untested", maxDistinct)
	}
}

// countingWork counts the work-floor lines a sketch prices.
type countingWork struct {
	w     costmodel.WorkLB
	lines int
}

func (c *countingWork) WorkLB() bool { return c.w.WorkLB() }

func (c *countingWork) WorkFloorLine(agg kernel.Task) (oneStep, perStep float64) {
	c.lines++
	return c.w.WorkFloorLine(agg)
}

// TestWorkLinePricedOncePerExtent is the work-count guard of the memo:
// under a Fop whose every prefix pads nothing (each axis' raw extent a
// multiple of every factor the inputs can take), all of a descent's
// PartialTimeLB and BeginScreen calls, and the Screens below them,
// price the work-floor line once — and the next Begin prices it again.
func TestWorkLinePricedOncePerExtent(t *testing.T) {
	cm := newTestCostModel(t)
	e := expr.MatMul("mm", 128, 64, 64, dtype.FP16)
	work := &countingWork{w: costmodel.WorkFloor(cm.Resolve(e.Name, e.Kind))}
	if work.w == nil {
		t.Fatal("the shipped matmul fit declares no work floor")
	}
	tensors := e.Tensors()
	ps := NewPlanSketch(e, DefaultConfig())
	ps.PaddingMin = 0.9
	bounds := 0
	for begin, fop := range [][]int{{8, 1, 8}, {8, 1, 8}, {4, 2, 8}} {
		if !ps.Begin(fop) {
			t.Fatalf("Begin rejected %v", fop)
		}
		ps.PartialTimeLB(cm.Spec, work)
		for _, a := range lastInputCombos(tensors[0], ps.ShareP(0), 64) {
			if !ps.Fix(a) {
				continue
			}
			ps.PartialTimeLB(cm.Spec, work)
			ps.BeginScreen(cm.Spec, work, 0)
			for _, b := range lastInputCombos(tensors[1], ps.ShareP(1), 64) {
				ps.Screen(b)
			}
			bounds += 2
			ps.Unfix()
		}
		if work.lines != begin+1 {
			t.Fatalf("after Begin #%d at %v: %d work-floor lines priced, want %d", begin, fop, work.lines, begin+1)
		}
	}
	if bounds < 20 {
		t.Fatalf("only %d prefix bounds taken — the guard is vacuous", bounds)
	}
	t.Logf("%d prefix bounds over 3 Begins priced %d work-floor lines", bounds, work.lines)
}
