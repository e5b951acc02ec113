package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dtype"
	"repro/internal/expr"
	"repro/internal/mathutil"
)

// refValidatePlacement is the placement proof as first written: cores
// walked in GridOrder, ring coordinates and window starts recomputed per
// (tensor, rotating dim, core), each ring keyed by a string of every
// coordinate outside its own position, per-ring state in a map. It is
// the oracle checkPlacement's integer ring slots must agree with.
func refValidatePlacement(p *Plan) error {
	grid := p.Grid()
	coords := make([]int, len(p.Fop))
	for ti := range p.Tensors {
		rt := &p.Tensors[ti]
		for ri, d := range rt.RotDims {
			a := rt.Ref.Dims[d].Terms[0].Axis
			ft := rt.Ft[d]
			pl := rt.PartShape[d]
			type ringState struct {
				offset int // common residue of window starts mod pl
				seen   []bool
			}
			rings := make(map[string]*ringState)
			for c := 0; c < grid.Cores(); c++ {
				grid.Coords(c, coords)
				rc := p.RingCoordOf(rt, coords)
				key := refRingKey(rt, coords, p.Fop, rc, ri)
				w := p.WindowStart(a, coords)
				st, ok := rings[key]
				if !ok {
					st = &ringState{offset: w % pl, seen: make([]bool, ft)}
					rings[key] = st
				}
				if w%pl != st.offset {
					return fmt.Errorf("plan %s: tensor %s dim %d: ring %q has misaligned window starts (%d vs residue %d)",
						p.Expr.Name, rt.Ref.Name, d, key, w, st.offset)
				}
				q := ((w - st.offset) / pl) % ft
				if st.seen[q] {
					return fmt.Errorf("plan %s: tensor %s dim %d: ring %q holds partition %d twice",
						p.Expr.Name, rt.Ref.Name, d, key, q)
				}
				st.seen[q] = true
			}
			for key, st := range rings {
				for q, ok := range st.seen {
					if !ok {
						return fmt.Errorf("plan %s: tensor %s dim %d: ring %q misses partition %d",
							p.Expr.Name, rt.Ref.Name, d, key, q)
					}
				}
			}
		}
	}
	return nil
}

// refRingKey identifies the rotation ring of tensor rt along rotating-dim
// index ri that the given core belongs to: all grid coordinates that are
// not part of the ring's own position, plus the ring id and the
// positions along the other rotating dims.
func refRingKey(rt *RTensor, coords []int, fop []int, rc RingCoord, ri int) string {
	buf := make([]byte, 0, 64)
	appendInt := func(v int) {
		buf = append(buf, byte(v), byte(v>>8), byte(v>>16), ',')
	}
	for a, c := range coords {
		missing := false
		for _, m := range rt.Missing {
			missing = missing || m == a
		}
		if fop[a] > 1 && missing {
			continue // missing-axes coords are encoded via ring/pos below
		}
		appendInt(c)
	}
	appendInt(rc.Ring)
	for j, p := range rc.Pos {
		if j == ri {
			continue
		}
		appendInt(p)
	}
	return string(buf)
}

// clonePlan rebuilds p from its factors: a fresh plan to mutate, with
// its own (empty) placement memo.
func clonePlan(p *Plan) *Plan {
	fts := make([][]int, len(p.Tensors))
	for ti := range p.Tensors {
		fts[ti] = append([]int(nil), p.Tensors[ti].Ft...)
	}
	q, err := NewPlan(p.Expr, p.Fop, fts, p.Cfg)
	if err != nil {
		panic(fmt.Sprintf("rebuilding an accepted plan: %v", err))
	}
	q.GridOrder = p.GridOrder
	return q
}

// placementMutants returns p's mutated copies, one edit each: every
// rotating dim's partition length ±1 (never below 1: a zero length is
// no placement at all), every rotating axis's padded extent +1, and the
// temporal factors of every two rotating dims with different factors
// swapped (within one tensor or across two). Most break the tiling.
func placementMutants(p *Plan) []*Plan {
	type rot struct{ ti, d int }
	var rots []rot
	rotAxes := map[int]bool{}
	for ti := range p.Tensors {
		for _, d := range p.Tensors[ti].RotDims {
			rots = append(rots, rot{ti, d})
			rotAxes[p.Tensors[ti].Ref.Dims[d].Terms[0].Axis] = true
		}
	}
	var out []*Plan
	for _, r := range rots {
		for _, delta := range []int{+1, -1} {
			if p.Tensors[r.ti].PartShape[r.d]+delta < 1 {
				continue
			}
			q := clonePlan(p)
			q.Tensors[r.ti].PartShape[r.d] += delta
			out = append(out, q)
		}
	}
	for a := range p.SubLen {
		if rotAxes[a] {
			q := clonePlan(p)
			q.SubLen[a]++
			out = append(out, q)
		}
	}
	for i := range rots {
		for j := i + 1; j < len(rots); j++ {
			x, y := rots[i], rots[j]
			if p.Tensors[x.ti].Ft[x.d] == p.Tensors[y.ti].Ft[y.d] {
				continue
			}
			q := clonePlan(p)
			fx, fy := &q.Tensors[x.ti].Ft[x.d], &q.Tensors[y.ti].Ft[y.d]
			*fx, *fy = *fy, *fx
			out = append(out, q)
		}
	}
	return out
}

// Exported for the oracle test over searched plans, which lives in
// package core_test because it imports internal/search.
var (
	CheckPlacement       = (*Plan).checkPlacement
	RefValidatePlacement = refValidatePlacement
	PlacementMutants     = placementMutants
)

// placementCandidate decodes a small matmul or convolution plan: Fop
// factors that divide their axis, and input temporal factors spent dim
// by dim from the tensor's sharing degree, so most candidates rotate.
// Nil when NewPlan rejects the draw or it needs more than 2048 cores.
func placementCandidate(s *byteSrc) *Plan {
	var e *expr.Expr
	if s.next()%2 == 0 {
		e = expr.MatMul("mm", s.pick(2, 4, 6, 8, 12, 16), s.pick(4, 6, 8, 12, 24), s.pick(2, 3, 4, 6, 8), dtype.FP16)
	} else {
		k := s.pick(1, 3)
		e = expr.Conv2D("conv", s.pick(1, 2, 4), s.pick(2, 4, 6), s.pick(2, 4, 6),
			s.pick(2, 4, 6), s.pick(2, 4, 6), k, k, 1+s.next()%2, dtype.FP16)
	}
	fop := make([]int, len(e.Axes))
	for a, ax := range e.Axes {
		divs := mathutil.Divisors(ax.Size)
		fop[a] = divs[s.next()%len(divs)]
	}
	tensors := e.Tensors()
	fts := make([][]int, len(tensors))
	for ti, tr := range tensors[:len(tensors)-1] {
		share := 1
		for a := range e.Axes {
			if !expr.ContainsAxis(tr, a) {
				share *= fop[a]
			}
		}
		fts[ti] = make([]int, len(tr.Dims))
		for d, dim := range tr.Dims {
			fts[ti][d] = 1
			if !dim.Compound() && dim.Terms[0].Stride == 1 {
				divs := mathutil.Divisors(share)
				fts[ti][d] = divs[s.next()%len(divs)]
				share /= fts[ti][d]
			}
		}
	}
	p, err := NewPlan(e, fop, fts, DefaultConfig())
	if err != nil || p.Cores > 2048 {
		return nil
	}
	return p
}

// checkAgainstRef asserts the integer-slot proof and the oracle accept
// and reject the same plan, and returns whether it was accepted.
func checkAgainstRef(t testing.TB, p *Plan) bool {
	t.Helper()
	got, want := p.checkPlacement(), refValidatePlacement(p)
	if (got == nil) != (want == nil) {
		t.Fatalf("%s Fop=%v GridOrder=%v: checkPlacement = %v, oracle = %v\n%s",
			p.Expr.Name, p.Fop, p.GridOrder, got, want, p)
	}
	return got == nil
}

// TestPlacementMatchesReference runs the integer-slot proof and the
// oracle over random small matmul and conv plans (which both must
// accept) and every mutant of each (which they must judge alike).
func TestPlacementMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	data := make([]byte, 48)
	plans, accepted, rejected := 0, 0, 0
	for iter := 0; iter < 600; iter++ {
		rng.Read(data)
		p := placementCandidate(&byteSrc{data: data})
		if p == nil {
			continue
		}
		plans++
		if !checkAgainstRef(t, p) {
			t.Fatalf("NewPlan accepted a plan whose placement fails: %v\n%s", p.checkPlacement(), p)
		}
		for _, q := range placementMutants(p) {
			if checkAgainstRef(t, q) {
				accepted++
			} else {
				rejected++
			}
		}
	}
	t.Logf("%d plans; mutants: %d accepted, %d rejected", plans, accepted, rejected)
	if plans < 200 || rejected < 200 || accepted < 20 {
		t.Fatalf("generator imbalance (%d plans, mutants %d/%d) — property undertested", plans, accepted, rejected)
	}
}

// TestPlacementIgnoresGridOrder: on small plans and their mutants the
// oracle, which walks cores in GridOrder, answers the same under every
// order the plan's axes can take. That is what lets ValidatePlacement
// work in coordinate space and memoise one answer per plan.
func TestPlacementIgnoresGridOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	data := make([]byte, 48)
	checked := 0
	for iter := 0; iter < 150; iter++ {
		rng.Read(data)
		p := placementCandidate(&byteSrc{data: data})
		if p == nil || p.Cores > 512 {
			continue
		}
		for _, q := range append([]*Plan{p}, placementMutants(p)...) {
			want := q.checkPlacement() == nil
			for _, order := range gridOrders(rng, len(q.Fop)) {
				q.GridOrder = order
				if got := refValidatePlacement(q) == nil; got != want {
					t.Fatalf("%s Fop=%v: oracle says %t under GridOrder %v, %t in coordinate order\n%s",
						q.Expr.Name, q.Fop, got, order, want, q)
				}
				checked++
			}
		}
	}
	t.Logf("%d (plan, GridOrder) pairs agree", checked)
}

// gridOrders returns every permutation of n axes when there are at most
// 24, else 24 random ones.
func gridOrders(rng *rand.Rand, n int) [][]int {
	var out [][]int
	if n > 4 {
		for len(out) < 24 {
			out = append(out, rng.Perm(n))
		}
		return out
	}
	var permute func(order []int, k int)
	permute = func(order []int, k int) {
		if k == len(order) {
			out = append(out, append([]int(nil), order...))
			return
		}
		for i := k; i < len(order); i++ {
			order[k], order[i] = order[i], order[k]
			permute(order, k+1)
			order[k], order[i] = order[i], order[k]
		}
	}
	permute(rng.Perm(n), 0)
	return out
}

// TestValidatePlacementRunsOnce: the memoised answer is the proof's,
// repeated calls do not re-run it, and GridOrder edits (the one field
// callers set) cannot change it.
func TestValidatePlacementRunsOnce(t *testing.T) {
	p := fig7MatMul(t)
	before := PlacementChecks()
	for i := 0; i < 3; i++ {
		p.GridOrder = []int{2, 1, 0}
		if err := p.ValidatePlacement(); err != nil {
			t.Fatal(err)
		}
	}
	if n := PlacementChecks() - before; n != 1 {
		t.Fatalf("three ValidatePlacement calls ran %d proofs, want 1", n)
	}
	bad := clonePlan(p)
	bad.Tensors[1].PartShape[0]++
	if bad.ValidatePlacement() == nil || bad.ValidatePlacement() == nil {
		t.Fatal("a mutated plan's placement was accepted")
	}
}

// FuzzValidatePlacement: a random small matmul or conv plan, mutated at
// most once, gets the same verdict from the integer-slot proof and the
// oracle.
func FuzzValidatePlacement(f *testing.F) {
	rng := rand.New(rand.NewSource(22))
	for i := 0; i < 16; i++ {
		seed := make([]byte, 48)
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s := &byteSrc{data: data}
		p := placementCandidate(s)
		if p == nil {
			return
		}
		if mutants := placementMutants(p); len(mutants) > 0 {
			if i := s.next() % (len(mutants) + 1); i < len(mutants) {
				p = mutants[i]
			}
		}
		checkAgainstRef(t, p)
	})
}
