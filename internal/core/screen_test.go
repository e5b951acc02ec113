package core

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/device"
	"repro/internal/dtype"
	"repro/internal/expr"
	"repro/internal/kernel"
	"repro/internal/mathutil"
)

var (
	calOnce sync.Once
	calSet  *costmodel.Set
)

// newCalibratedCostModel refits a fresh set over profiled samples, as a
// warmed-up serving process would: the refit predictors carry their own
// WorkLB declarations.
func newCalibratedCostModel(t testing.TB) *costmodel.Set {
	t.Helper()
	calOnce.Do(func() {
		spec := device.IPUMK2()
		set := costmodel.MustNewSet(spec)
		ring := costmodel.NewSampleRing(1 << 12)
		for i, kind := range set.Kinds() {
			for _, s := range costmodel.ProfileSamples(spec, kind, 200, int64(700+i)) {
				ring.Record(s.Task, s.Ns)
			}
		}
		if _, err := set.Calibrate(ring, 0); err != nil {
			panic(err)
		}
		calSet = set
	})
	return calSet
}

// zeroPred prices every task at zero: the predictor-free setting, where
// the screen carries no compute floor and the estimate no compute term,
// so the shift, all-reduce and sync terms must bound on their own.
type zeroPred struct{}

func (zeroPred) Predict(kernel.Task) float64 { return 0 }

// Predictor settings the screen is checked under.
const (
	screenShipped = iota
	screenCalibrated
	screenFree
	screenSettings
)

// screenCandidate decodes an operator — a matmul, a batch matmul, a
// (strided) convolution, a pool, an elementwise op or a fused chain of
// a matmul, a bias epilogue and a second contraction —, a Fop, temporal
// factors for every input but the last, and a predictor setting.
func screenCandidate(s *byteSrc) (e *expr.Expr, fop []int, prefix [][]int, setting int) {
	dim := func(n int) int { return 1 + s.next()%n }
	switch s.next() % 6 {
	case 0:
		e = expr.MatMul("mm", dim(64), dim(64), dim(64), dtype.FP16)
	case 1:
		e = expr.BatchMatMul("bmm", dim(6), dim(32), dim(32), dim(32), dtype.FP16)
	case 2:
		k := s.pick(1, 3, 5)
		e = expr.Conv2D("conv", dim(4), dim(16), dim(16), dim(12), dim(12), k, k, s.pick(1, 2), dtype.FP16)
	case 3:
		k := s.pick(2, 3)
		e = expr.Pool2D("pool", dim(4), dim(16), dim(12), dim(12), k, k, s.pick(1, 2), dtype.FP16)
	case 4:
		e = expr.Elementwise("act", dim(64), dim(64), 4, dtype.FP16)
	default:
		m, k, n, p := dim(16), dim(32), dim(32), dim(32)
		var err error
		e, err = expr.ComposeEpilogue(expr.MatMul("ffn1", m, k, n, dtype.FP16), expr.EltwiseBinary("bias", m, n, dtype.FP16), 0)
		if err == nil {
			e, err = expr.ComposeContraction(e, expr.MatMul("ffn2", m, n, p, dtype.FP16), 0)
		}
		if err != nil {
			panic(err)
		}
	}
	fop, prefix = screenPrefix(s, e)
	return e, fop, prefix, s.next() % screenSettings
}

// screenPrefix decodes a Fop for e and temporal factors for every input
// but the last.
func screenPrefix(s *byteSrc, e *expr.Expr) (fop []int, prefix [][]int) {
	fop = make([]int, len(e.Axes))
	for a, ax := range e.Axes {
		if v := s.next(); v%3 != 0 {
			divs := mathutil.Divisors(ax.Size)
			fop[a] = divs[(v/3)%len(divs)]
		} else {
			fop[a] = 1
		}
	}
	tensors := e.Tensors()
	prefix = make([][]int, len(tensors)-2)
	for ti := range prefix {
		if s.next()%4 == 0 {
			continue
		}
		share := tensorShareOf(e, tensors[ti], fop)
		prefix[ti] = make([]int, len(tensors[ti].Dims))
		for d := range prefix[ti] {
			divs := mathutil.Divisors(share)
			prefix[ti][d] = divs[s.next()%len(divs)]
			share /= prefix[ti][d]
		}
	}
	return fop, prefix
}

// tensorShareOf is tensor tr's sharing degree under fop.
func tensorShareOf(e *expr.Expr, tr expr.TensorRef, fop []int) int {
	share := 1
	for a := range e.Axes {
		if !expr.ContainsAxis(tr, a) {
			share *= fop[a]
		}
	}
	return share
}

// lastInputCombos enumerates the last input's temporal-factor vectors
// the search's table holds at sharing degree share — divisors spent dim
// by dim over the single-axis stride-1 dims — plus nil, up to limit.
func lastInputCombos(tr expr.TensorRef, share, limit int) [][]int {
	out := [][]int{nil}
	ft := make([]int, len(tr.Dims))
	var rec func(d, rem int)
	rec = func(d, rem int) {
		if len(out) >= limit {
			return
		}
		if d == len(ft) {
			out = append(out, slices.Clone(ft))
			return
		}
		ft[d] = 1
		if dim := tr.Dims[d]; dim.Compound() || dim.Terms[0].Stride != 1 {
			rec(d+1, rem)
			return
		}
		for _, v := range mathutil.Divisors(rem) {
			ft[d] = v
			rec(d+1, rem/v)
		}
	}
	rec(0, share)
	return out
}

// screenCounts tallies what checkLeafScreen exercised.
type screenCounts struct {
	prefixes, leaves, exactMem, rotating, sharedAxis int
}

// checkLeafScreen fixes the prefix on ps (a sketch of e, which may
// have screened other Fops before), begins the screen, and for every
// combo of the last input compares Screen against the finished leaf:
// memory at or below Finish's MemPerCore — equal to it when the leaf
// pads no axis past the prefix extents —, time at or below the leaf's
// Estimate, and BeginScreen's subtree bounds at or below both. The
// leaves are fixed and finished between the screens, as the search
// interleaves them. BeginScreen and every Screen must also equal a
// fresh sketch's bit for bit.
func checkLeafScreen(t testing.TB, ps *PlanSketch, e *expr.Expr, fop []int, prefix [][]int, setting int, n *screenCounts) {
	t.Helper()
	tensors := e.Tensors()
	last := len(tensors) - 2
	if !ps.Begin(fop) {
		return
	}
	for _, ft := range prefix {
		if !ps.Fix(ft) {
			return
		}
	}
	n.prefixes++
	combos := lastInputCombos(tensors[last], ps.ShareP(last), 256)

	var spec *device.Spec
	var pred costmodel.Predictor = zeroPred{}
	var work costmodel.WorkLB
	switch setting {
	case screenShipped, screenCalibrated:
		cm := newTestCostModel(t)
		if setting == screenCalibrated {
			cm = newCalibratedCostModel(t)
		}
		spec, pred = cm.Spec, cm.Resolve(e.Name, e.Kind)
		work = costmodel.WorkFloor(pred)
	default:
		spec = newTestCostModel(t).Spec
	}
	maxProd := 1
	for _, c := range combos {
		maxProd = max(maxProd, mathutil.Prod(c...))
	}
	subMem, subNs := ps.BeginScreen(spec, work, ps.TensorMinBytes(last, maxProd))
	ref := freshAt(e, ps.PaddingMin, fop, prefix)
	refMem, refNs := ref.BeginScreen(spec, work, ps.TensorMinBytes(last, maxProd))
	sameBounds(t, "BeginScreen", subMem, subNs, refMem, refNs)
	pExt := slices.Clone(ps.pExt)
	prefixMax := ps.pMax[last]
	for _, c := range combos {
		mem, ns := ps.Screen(c)
		refMem, refNs := ref.Screen(c)
		sameBounds(t, "Screen", mem, ns, refMem, refNs)
		if !ps.Fix(c) {
			continue
		}
		if !ps.Fix(nil) || !ps.Finish() {
			ps.Unfix()
			ps.Unfix()
			continue
		}
		n.leaves++
		est := ps.Estimate(spec, pred)
		if mem > ps.MemPerCore || subMem > ps.MemPerCore {
			t.Fatalf("%s: screen mem %d / subtree %d exceed leaf mem %d (setting %d fop=%v prefix=%v ft=%v)",
				e.Name, mem, subMem, ps.MemPerCore, setting, fop, prefix, c)
		}
		if slices.Equal(ps.SubLen, pExt) {
			if mem != ps.MemPerCore {
				t.Fatalf("%s: unpadded leaf: screen mem %d != leaf mem %d (setting %d fop=%v prefix=%v ft=%v)",
					e.Name, mem, ps.MemPerCore, setting, fop, prefix, c)
			}
			n.exactMem++
		}
		if ns > est.TotalNs || subNs > est.TotalNs {
			t.Fatalf("%s: screen time %g / subtree %g exceed estimate %g (setting %d fop=%v prefix=%v ft=%v)",
				e.Name, ns, subNs, est.TotalNs, setting, fop, prefix, c)
		}
		if ps.pRotLen[len(tensors)] > 0 {
			n.rotating++
		}
		for d, f := range c {
			if f > 1 && prefixMax[tensors[last].Dims[d].Terms[0].Axis] > 1 {
				n.sharedAxis++ // the combo steps an axis the prefix already steps
				break
			}
		}
		ps.Unfix()
		ps.Unfix()
	}
}

// TestLeafScreenAdmissible is the last-input screen's safety contract
// (seeded): over matmuls, batch matmuls, strided convolutions, pools,
// elementwise ops and fused chains, random Fops and prefixes, every
// combo of the last input, under the shipped fit, a calibrated refit
// and no predictor, Screen never bounds above the finished leaf.
func TestLeafScreenAdmissible(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	var n screenCounts
	data := make([]byte, 48)
	for iter := 0; iter < 6000; iter++ {
		rng.Read(data)
		e, fop, prefix, setting := screenCandidate(&byteSrc{data: data})
		checkLeafScreen(t, NewPlanSketch(e, DefaultConfig()), e, fop, prefix, setting, &n)
	}
	t.Logf("%+v", n)
	if n.leaves < 20000 || n.exactMem < 5000 || n.rotating < 10000 || n.sharedAxis < 1000 {
		t.Fatalf("generator imbalance: %+v — property undertested", n)
	}
}

// FuzzLeafScreen runs the same contract over fuzzer-chosen candidates,
// each screening a second Fop on the same sketch: what the sketch
// memoises under one Begin must not leak into the next.
func FuzzLeafScreen(f *testing.F) {
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 8; i++ {
		seed := make([]byte, 96)
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		src := &byteSrc{data: data}
		e, fop, prefix, setting := screenCandidate(src)
		ps := NewPlanSketch(e, DefaultConfig())
		checkLeafScreen(t, ps, e, fop, prefix, setting, &screenCounts{})
		fop, prefix = screenPrefix(src, e)
		checkLeafScreen(t, ps, e, fop, prefix, setting, &screenCounts{})
	})
}

// freshAt returns a new sketch of e under padMin, begun at fop with the
// inputs fixed through prefix, or nil when it rejects them.
func freshAt(e *expr.Expr, padMin float64, fop []int, prefix [][]int) *PlanSketch {
	ps := NewPlanSketch(e, DefaultConfig())
	ps.PaddingMin = padMin
	if !ps.Begin(fop) {
		return nil
	}
	for _, ft := range prefix {
		if !ps.Fix(ft) {
			return nil
		}
	}
	return ps
}

// sameBounds fails unless a fresh sketch's (refMem, refNs) equals
// (mem, ns) bit for bit.
func sameBounds(t testing.TB, what string, mem int64, ns float64, refMem int64, refNs float64) {
	t.Helper()
	if refMem != mem || math.Float64bits(refNs) != math.Float64bits(ns) {
		t.Fatalf("%s: (%d, %v), a fresh sketch gives (%d, %v)", what, mem, ns, refMem, refNs)
	}
}
