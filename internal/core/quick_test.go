package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dtype"
	"repro/internal/expr"
	"repro/internal/mathutil"
)

// quickPlan builds a random valid matmul plan from quick-generated
// seeds; returns nil when the sampled configuration is rejected (the
// property tests only constrain accepted plans).
func quickPlan(seed int64) *Plan {
	rng := rand.New(rand.NewSource(seed))
	m := []int{2, 4, 6, 8, 12, 16}[rng.Intn(6)]
	k := []int{4, 6, 8, 12, 24, 48}[rng.Intn(6)]
	n := []int{2, 3, 4, 6, 8}[rng.Intn(5)]
	e := expr.MatMul("mm", m, k, n, dtype.FP16)
	fop := []int{
		mathutil.Divisors(m)[rng.Intn(len(mathutil.Divisors(m)))],
		mathutil.Divisors(k)[rng.Intn(len(mathutil.Divisors(k)))],
		mathutil.Divisors(n)[rng.Intn(len(mathutil.Divisors(n)))],
	}
	shareA, shareB := fop[2], fop[0]
	dA := mathutil.Divisors(shareA)
	dB := mathutil.Divisors(shareB)
	fts := [][]int{
		{1, dA[rng.Intn(len(dA))]},
		{dB[rng.Intn(len(dB))], 1},
		nil,
	}
	p, err := NewPlan(e, fop, fts, DefaultConfig())
	if err != nil {
		return nil
	}
	return p
}

func TestQuickFinishReproducesPlan(t *testing.T) {
	// A sketch driven tensor by tensor through Begin/Fix/Finish arrives
	// at the accepted plan's own padded extents, steps and footprint.
	f := func(seed int64) bool {
		p := quickPlan(seed)
		if p == nil {
			return true
		}
		ps := NewPlanSketch(p.Expr, p.Cfg)
		if !ps.Begin(p.Fop) {
			return false
		}
		for ti := range p.Tensors {
			if !ps.Fix(p.Tensors[ti].Ft) {
				return false
			}
		}
		if !ps.Finish() || ps.TotalSteps != p.TotalSteps || ps.MemPerCore != p.MemPerCore() {
			return false
		}
		for a := range p.SubLen {
			if ps.SubLen[a] != p.SubLen[a] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickRotatingPaceNeverExceedsPartition(t *testing.T) {
	f := func(seed int64) bool {
		p := quickPlan(seed)
		if p == nil {
			return true
		}
		for ti := range p.Tensors {
			rt := &p.Tensors[ti]
			for d := range rt.RP {
				if rt.RP[d] > 0 && rt.RP[d] > rt.PartShape[d] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickStepsTimesPaceCoversAxis(t *testing.T) {
	// S_a · rp_a must equal the padded sub-operator extent: the nested
	// loop sweeps every element exactly once per cycle.
	f := func(seed int64) bool {
		p := quickPlan(seed)
		if p == nil {
			return true
		}
		for a := range p.SubLen {
			if p.StepsPerAxis[a]*p.RPAxis[a] != p.SubLen[a] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickAdvancesConsistentWithSteps(t *testing.T) {
	// Σ over iterated axes of advances/S_a telescopes to the loop
	// structure: the innermost axis advances TotalSteps times.
	f := func(seed int64) bool {
		p := quickPlan(seed)
		if p == nil || len(p.LoopOrder) == 0 {
			return true
		}
		inner := p.LoopOrder[len(p.LoopOrder)-1]
		if p.Advances(inner) != p.TotalSteps {
			return false
		}
		// outermost advances exactly its own step count
		outer := p.LoopOrder[0]
		return p.Advances(outer) == p.StepsPerAxis[outer]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickShiftBytesConservation(t *testing.T) {
	// Total shift volume equals Σ_a tile_a × advances_a — no traffic
	// appears or disappears in the accounting.
	f := func(seed int64) bool {
		p := quickPlan(seed)
		if p == nil {
			return true
		}
		var sum int64
		for _, a := range p.LoopOrder {
			sum += p.ShiftTileBytes(a) * int64(p.Advances(a))
		}
		return sum == p.ShiftBytesPerCore()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickMemoryDecomposition(t *testing.T) {
	// MemPerCore = Σ partition bytes + shift buffer iff anything rotates.
	f := func(seed int64) bool {
		p := quickPlan(seed)
		if p == nil {
			return true
		}
		var parts int64
		rotates := false
		for ti := range p.Tensors {
			parts += p.Tensors[ti].PartBytes()
			rotates = rotates || p.Tensors[ti].Rotates()
		}
		want := parts
		if rotates {
			want += int64(p.Cfg.ShiftBufBytes)
		}
		return p.MemPerCore() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickWindowStartsTileEveryRing(t *testing.T) {
	// The skewed placement validator must accept every constructed plan
	// (the deep version of the Fig 10 guarantee).
	f := func(seed int64) bool {
		p := quickPlan(seed)
		if p == nil {
			return true
		}
		return p.ValidatePlacement() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickWindowPeriodicity(t *testing.T) {
	// Advancing an axis S_a times returns every window to its start.
	f := func(seed int64) bool {
		p := quickPlan(seed)
		if p == nil || len(p.LoopOrder) == 0 {
			return true
		}
		g := p.Grid()
		coords := make([]int, len(p.Fop))
		for c := 0; c < p.Cores; c++ {
			g.Coords(c, coords)
			for _, a := range p.LoopOrder {
				w0 := p.WindowStart(a, coords)
				wrapped := (w0 + p.StepsPerAxis[a]*p.RPAxis[a]) % p.SubLen[a]
				if wrapped != w0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestQuickGridBijection(t *testing.T) {
	f := func(seed int64) bool {
		p := quickPlan(seed)
		if p == nil {
			return true
		}
		g := p.Grid()
		seen := make(map[int]bool, p.Cores)
		coords := make([]int, len(p.Fop))
		for c := 0; c < g.Cores(); c++ {
			g.Coords(c, coords)
			id := g.Core(coords)
			if id != c || seen[id] {
				return false
			}
			seen[id] = true
		}
		return len(seen) == p.Cores
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
