package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/dtype"
	"repro/internal/expr"
	"repro/internal/mathutil"
)

// byteSrc decodes a candidate from a byte string, so the seeded
// property test and the native fuzz target draw from one generator. An
// exhausted source yields zeros.
type byteSrc struct {
	data []byte
	i    int
}

func (s *byteSrc) next() int {
	if s.i >= len(s.data) {
		return 0
	}
	s.i++
	return int(s.data[s.i-1])
}

func (s *byteSrc) pick(vals ...int) int { return vals[s.next()%len(vals)] }

// paddingCandidate decodes (expr, Fop, fts, PaddingMin): a matmul, a
// convolution (1×1 to 7×7 window, stride 1 or 2) or a gather; Fop
// factors that mostly divide their axis; temporal factors that mostly
// divide the tensor's sharing degree — skewed so that accepted,
// padding-rejected and invalid candidates all turn up.
func paddingCandidate(s *byteSrc) (e *expr.Expr, fop []int, fts [][]int, padMin float64) {
	switch s.next() % 3 {
	case 0:
		e = expr.MatMul("mm", 1+s.next()%96, 1+s.next()%96, 1+s.next()%96, dtype.FP16)
	case 1:
		k := s.pick(1, 3, 3, 5, 7)
		e = expr.Conv2D("conv", 1+s.next()%8, 1+s.next()%32, 1+s.next()%32,
			1+s.next()%16, 1+s.next()%16, k, k, 1+s.next()%2, dtype.FP16)
	default:
		e = expr.GatherOp("emb", 1+s.next()%64, 1+s.next()%200, 1+s.next()%64, dtype.FP16)
	}
	fop = make([]int, len(e.Axes))
	for a, ax := range e.Axes {
		switch v := s.next(); {
		case v%4 == 0 || ax.Kind == expr.Gather:
			fop[a] = 1
		case v%4 == 3:
			fop[a] = 1 + (v/4)%ax.Size
		default:
			divs := mathutil.Divisors(ax.Size)
			fop[a] = divs[(v/4)%len(divs)]
		}
	}
	tensors := e.Tensors()
	fts = make([][]int, len(tensors))
	for ti, tr := range tensors {
		if s.next()%4 == 0 || ti == len(tensors)-1 {
			continue
		}
		// spend the sharing degree dim by dim, so ∏ft divides it unless
		// a wild factor lands
		share := 1
		for a := range e.Axes {
			if !expr.ContainsAxis(tr, a) {
				share *= fop[a]
			}
		}
		fts[ti] = make([]int, len(tr.Dims))
		for d, dim := range tr.Dims {
			v := s.next()
			f := 1
			switch {
			case v%8 == 7:
				f = s.pick(2, 3, 4)
			case v%2 == 1 && !dim.Compound() && dim.Terms[0].Stride == 1:
				divs := mathutil.Divisors(share)
				f = divs[(v/8)%len(divs)]
				share /= f
			}
			fts[ti][d] = f
		}
	}
	return e, fop, fts, []float64{0.8, 0.9, 0.95}[s.next()%3]
}

const (
	padAccepted    = iota
	padRejectedFop // valid for NewPlan, but the Fop alone over-pads (Begin)
	padRejectedFt  // valid for NewPlan, over-padded by temporal factors (Fix)
	padInvalid
	padOutcomes
)

// checkPrefixPadding asserts, for one candidate, that a sketch handed
// the padding rule accepts the leaf exactly when a plain Compute
// accepts it and the search's leaf-level padding check passes; that an
// accepted leaf's tensors all pass FactorsPadOK (the search's live
// lists drop nothing that could finish); that the leaf's sketch
// Estimate is the plan's, bit for bit; and that every prefix's
// PartialMemLB / PartialTimeLB — without a compute floor and with the
// work floor — stay at or below the finished leaf and its full
// estimate. It returns the outcome and how many prefix bounds the work
// floor tightened.
func checkPrefixPadding(t testing.TB, cm *costmodel.Set, e *expr.Expr, fop []int, fts [][]int, padMin float64) (outcome, tightened int) {
	t.Helper()
	cfg := DefaultConfig()
	tensors := e.Tensors()
	plain := NewPlanSketch(e, cfg)
	valid := plain.Compute(fop, fts)
	leafOK := valid
	if valid {
		// the search's independent leaf filter (sketchPaddingOK)
		for a := range e.Axes {
			if float64(e.Axes[a].Size)/float64(plain.SubLen[a]*fop[a]) < padMin {
				leafOK = false
			}
		}
	}

	ps := NewPlanSketch(e, cfg)
	ps.PaddingMin = padMin
	pred := cm.Resolve(e.Name, e.Kind)
	var memLBs []int64
	var timeLBs []float64
	begun := ps.Begin(fop)
	ok := begun
	if ok {
		work := costmodel.WorkFloor(pred)
		for ti := range tensors {
			if ok = ps.Fix(ftOf(fts, ti)); !ok {
				break
			}
			var rest int64
			for tj := ti + 1; tj < len(tensors); tj++ {
				rest += ps.TensorMinBytes(tj, mathutil.Prod(ftOf(fts, tj)...))
			}
			memLBs = append(memLBs, ps.PartialMemLB(rest))
			noneLB, workLB := ps.PartialTimeLB(cm.Spec, nil), ps.PartialTimeLB(cm.Spec, work)
			timeLBs = append(timeLBs, noneLB, workLB)
			if workLB > noneLB {
				tightened++
			}
		}
		ok = ok && ps.Finish()
	}
	if ok != leafOK {
		t.Fatalf("%s: padding-aware sketch ok=%t, but Compute=%t and leaf filter=%t (fop=%v fts=%v min=%g)",
			e.Name, ok, valid, leafOK, fop, fts, padMin)
	}
	switch {
	case !valid:
		return padInvalid, 0
	case !begun:
		return padRejectedFop, 0
	case !ok:
		return padRejectedFt, 0
	}
	for ti := range tensors {
		if !ps.FactorsPadOK(ti, ftOf(fts, ti)) {
			t.Fatalf("%s: accepted leaf, but tensor %d fails FactorsPadOK (fop=%v fts=%v min=%g)",
				e.Name, ti, fop, fts, padMin)
		}
	}
	p, err := NewPlan(e, fop, fts, cfg)
	if err != nil {
		t.Fatalf("%s: sketch accepted what NewPlan rejects: %v (fop=%v fts=%v)", e.Name, err, fop, fts)
	}
	if ps.MemPerCore != plain.MemPerCore || ps.MemPerCore != p.MemPerCore() {
		t.Fatalf("%s: mem %d (padding-aware) / %d (plain) / %d (plan) (fop=%v fts=%v)",
			e.Name, ps.MemPerCore, plain.MemPerCore, p.MemPerCore(), fop, fts)
	}
	want := p.EstimateWith(cm.Spec, pred)
	if got := ps.Estimate(cm.Spec, pred); !sameEstimateBits(got, want) {
		t.Fatalf("%s: sketch estimate %+v != plan estimate %+v (fop=%v fts=%v)", e.Name, got, want, fop, fts)
	}
	total := want.TotalNs
	for d, lb := range memLBs {
		if lb > ps.MemPerCore {
			t.Fatalf("%s: depth %d mem bound %d exceeds leaf mem %d (fop=%v fts=%v)",
				e.Name, d, lb, ps.MemPerCore, fop, fts)
		}
	}
	for i, lb := range timeLBs {
		if lb > total {
			t.Fatalf("%s: depth %d time bound %g (#%d: none/work floor) exceeds estimate %g (fop=%v fts=%v min=%g)",
				e.Name, i/2, lb, i%2, total, fop, fts, padMin)
		}
	}
	return padAccepted, tightened
}

// TestPrefixPaddingMatchesLeafFilter is the contract the search's
// prefix-level padding filter rests on: over random matmul, conv
// (stride 1 and 2, 1×1 to 7×7) and gather candidates at PaddingMin
// 0.8 / 0.9 / 0.95, deciding padding inside Begin/Fix drops exactly the
// leaves the leaf-level filter drops.
func TestPrefixPaddingMatchesLeafFilter(t *testing.T) {
	cm := newTestCostModel(t)
	rng := rand.New(rand.NewSource(16))
	var counts [padOutcomes]int
	tightened := 0
	data := make([]byte, 40)
	for iter := 0; iter < 30000; iter++ {
		rng.Read(data)
		e, fop, fts, padMin := paddingCandidate(&byteSrc{data: data})
		outcome, n := checkPrefixPadding(t, cm, e, fop, fts, padMin)
		counts[outcome]++
		tightened += n
	}
	t.Logf("accepted %d, over-padded by Fop %d / by f_t %d, invalid %d; %d prefix bounds tightened by the work floor",
		counts[padAccepted], counts[padRejectedFop], counts[padRejectedFt], counts[padInvalid], tightened)
	for _, n := range counts {
		if n < 1000 {
			t.Fatalf("generator imbalance: outcomes %v — property undertested", counts)
		}
	}
	if tightened < 500 {
		t.Fatalf("only %d prefix bounds tightened by the work floor — undertested", tightened)
	}
}

// gatedConv is Conv2D with extra inputs no model builds but a custom op
// may have: gates whose simple dims let temporal factors reach axes a
// plain convolution never steps. A gate on the output-row axis h steps
// the strided compound input dim's lead axis; a gate indexing the
// window axis kh lets two tensors rotate it.
func gatedConv(name string, b, f, c, h, w, k, stride int, gates ...expr.TensorRef) *expr.Expr {
	e := expr.Conv2D(name, b, f, c, h, w, k, k, stride, dtype.FP16)
	e.Inputs = append(e.Inputs, gates...)
	return e
}

// TestWorkFloorEdgeCases pins the two places the work floor must not
// read the prefix extents: checkPrefixPadding must accept each
// candidate, with every prefix bound — the work floor's, which must
// engage — at or below the leaf's estimate.
//
//   - halo: a row gate steps h twice over a 1×1 stride-2 input. Each
//     step reads 2·rp_h − 1 input rows, which sum to 2·SubLen_h − 2,
//     one short of the input tile at the padded extents: operand bytes
//     must floor each dim by one term axis, not take the tile.
//   - window: the weight and a second gate put factors 2 and 3 on the
//     window axis kh, so it pads to their LCM 6 and steps by their max
//     3 — a step's window (2) outgrows the extent of the prefix that
//     has fixed the input only (1), and the cap windowCap takes from
//     pPadCap (10 at PaddingMin 0.1) must cover it.
func TestWorkFloorEdgeCases(t *testing.T) {
	cm := newTestCostModel(t)
	gate := func(name string, axes ...int) expr.TensorRef {
		dims := make([]expr.Dim, len(axes))
		for i, a := range axes {
			dims[i] = expr.D(a)
		}
		return expr.TensorRef{Name: name, Dims: dims, Elem: dtype.FP16}
	}
	// axes: b f c h w kh kw; tensors: I K gates... O
	for _, tc := range []struct {
		name   string
		e      *expr.Expr
		fop    []int
		fts    [][]int
		padMin float64
	}{
		{"halo", gatedConv("halo", 4, 2, 16, 16, 1, 1, 2, gate("G", 3)),
			[]int{1, 2, 1, 1, 1, 1, 1}, [][]int{nil, nil, {2}, nil}, 0.9},
		{"window", gatedConv("window", 8, 3, 64, 16, 16, 1, 1, gate("W", 0, 5)),
			[]int{2, 3, 1, 1, 1, 1, 1}, [][]int{nil, {1, 1, 2, 1}, {1, 3}, nil}, 0.1},
	} {
		outcome, tightened := checkPrefixPadding(t, cm, tc.e, tc.fop, tc.fts, tc.padMin)
		if outcome != padAccepted || tightened == 0 {
			t.Fatalf("%s: outcome %d, %d bounds tightened — the case no longer exercises the work floor", tc.name, outcome, tightened)
		}
	}
}

// floatPadOK is the padding rule as the search's leaf filter writes it.
func floatPadOK(size, padded int, min float64) bool {
	return !(float64(size)/float64(padded) < min)
}

// padMins are the PaddingMin values the cap is checked at: off (≤ 0,
// where ⌊size/min⌋ is no cap at all), the paper's range, exactly 1
// (only unpadded axes pass), above 1 (nothing passes, not even the
// unpadded extent — a cap clamped at size gets this wrong) and NaN (the
// float compare is false, so everything passes).
var padMins = []float64{-1, 0, 0.5, 0.8, 0.9, 0.95, 0.999, 1, 1.5, math.NaN()}

// TestPadCapMatchesFloat is the contract the sketch's integer padding
// test rests on: for every axis size 1..8192, every Fop 1..size and
// every padMins value, "padded sub-extent ≤ padCap/Fop" decides as the
// float rule does on the padded extent — at the unpadded sub-extent and
// on both sides of the cap, which by monotonicity covers every padded
// sub-extent in between.
func TestPadCapMatchesFloat(t *testing.T) {
	for _, min := range padMins {
		for size := 1; size <= 8192; size++ {
			limit := padCap(size, min)
			for fop := 1; fop <= size; fop++ {
				c := limit / fop
				raw := (size + fop - 1) / fop
				if raw <= c != floatPadOK(size, raw*fop, min) {
					t.Fatalf("size %d fop %d min %g: unpadded %d ≤ cap %d/%d is %t, float rule disagrees",
						size, fop, min, raw, limit, fop, raw <= c)
				}
				if c < raw {
					continue // every padded sub-extent is ≥ raw: all fail, like raw
				}
				// c·fop ≤ limit ≤ maxPadCap; past maxPadCap lies no extent
				if !floatPadOK(size, c*fop, min) || (c+1)*fop <= maxPadCap && floatPadOK(size, (c+1)*fop, min) {
					t.Fatalf("size %d fop %d min %g: cap %d/%d = %d is not the float rule's boundary",
						size, fop, min, limit, fop, c)
				}
			}
		}
	}
}

// TestPadCapFollowsPaddingMin checks the sketch's caps against the float
// rule through Begin and FactorsPadOK, with PaddingMin changed on the
// same sketch between Begins: the caps must follow the field, never the
// value the sketch was first begun under.
func TestPadCapFollowsPaddingMin(t *testing.T) {
	e := expr.MatMul("mm", 97, 120, 64, dtype.FP16)
	ps := NewPlanSketch(e, DefaultConfig())
	rng := rand.New(rand.NewSource(22))
	fop := make([]int, len(e.Axes))
	checked := 0
	for iter := 0; iter < 4000; iter++ {
		ps.PaddingMin = padMins[rng.Intn(len(padMins))]
		for a, ax := range e.Axes {
			fop[a] = 1 + rng.Intn(ax.Size)
		}
		want := true
		for a, ax := range e.Axes {
			want = want && floatPadOK(ax.Size, mathutil.CeilDiv(ax.Size, fop[a])*fop[a], ps.PaddingMin)
		}
		if got := ps.Begin(fop); got != want {
			t.Fatalf("min %g fop %v: Begin %t, float rule %t", ps.PaddingMin, fop, got, want)
		}
		if !want {
			continue
		}
		// a temporal factor f on the first input's dim d pads its axis to
		// a multiple of f
		in := e.Inputs[0]
		for d, dim := range in.Dims {
			a := dim.Terms[0].Axis
			f := 1 + rng.Intn(8)
			ft := make([]int, len(in.Dims))
			for i := range ft {
				ft[i] = 1
			}
			ft[d] = f
			raw := mathutil.CeilDiv(e.Axes[a].Size, fop[a])
			want := floatPadOK(e.Axes[a].Size, mathutil.RoundUp(raw, f)*fop[a], ps.PaddingMin)
			if got := ps.FactorsPadOK(0, ft); got != want {
				t.Fatalf("min %g fop %v ft %v: FactorsPadOK %t, float rule %t", ps.PaddingMin, fop, ft, got, want)
			}
			checked++
		}
	}
	if checked < 1000 {
		t.Fatalf("only %d factor checks — property undertested", checked)
	}
}

// FuzzPrefixPadding runs the same contract — prefix padding ≡ leaf
// filter, live lists sound, sketch Estimate ≡ plan estimate, leaf and
// partial bounds (the work floor's too) admissible — over
// fuzzer-chosen candidates.
func FuzzPrefixPadding(f *testing.F) {
	cm := newTestCostModel(f)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 8; i++ {
		seed := make([]byte, 40)
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		e, fop, fts, padMin := paddingCandidate(&byteSrc{data: data})
		checkPrefixPadding(t, cm, e, fop, fts, padMin)
	})
}
