// Package vgm implements the load-compute-store baselines of §2.2: DL
// compilers that emulate a shared memory over the inter-core links by
// reserving a virtual global memory (VGM) region on every core.
//
// Tensors live block-distributed in the VGM. To run an operator, each
// core loads the tiles of its sub-operator from the owning cores,
// computes locally and stores the result back. This reproduces both
// inefficiencies the paper measures: imbalanced remote loads (a few
// owners serve many readers and serialize at the 5.5 GB/s per-core
// link), and duplicated memory (the working tiles exist both in the VGM
// and in the sub-operator region, Fig 2).
//
// Three baseline plan selectors share this execution model:
//
//   - Roller: grows hardware-aligned tiles to maximize compute intensity
//     within the memory left over by the VGM reservation (à la Roller,
//     OSDI'22, which the paper ports to the IPU).
//   - Ansor: a seeded random search over the same tile space with a
//     fixed evaluation budget (the paper finds it performs like Roller).
//   - PopART: a fixed √C×√C output-grid heuristic standing in for the
//     vendor library: good single-op plans, no memory/communication
//     trade-off, heavy weight replication.
package vgm

import (
	"fmt"
	"math/rand"

	"repro/internal/device"
	"repro/internal/expr"
	"repro/internal/kernel"
	"repro/internal/mathutil"
)

// Kind selects the baseline plan selector.
type Kind int

const (
	Roller Kind = iota
	Ansor
	PopART
)

func (k Kind) String() string {
	switch k {
	case Roller:
		return "Roller"
	case Ansor:
		return "Ansor"
	case PopART:
		return "PopART"
	}
	return fmt.Sprintf("vgm(%d)", int(k))
}

// Compiler compiles models onto the VGM execution model.
type Compiler struct {
	Spec *device.Spec
	Kind Kind

	// AnsorBudget is the number of random candidates Ansor evaluates.
	AnsorBudget int
}

// New returns a baseline compiler.
func New(kind Kind, spec *device.Spec) *Compiler {
	return &Compiler{Spec: spec, Kind: kind, AnsorBudget: 300}
}

// tile describes one load-compute-store tile of a matmul-shaped
// operator (M×N output block over a K reduction chunk).
type tile struct {
	m, n, k int
}

// opShape reduces an operator to matrix-unit roles, mirroring
// core.KernelTask's convention.
type opShape struct {
	kind    expr.OpKind
	M, N, K int
	kh, kw  int
	elem    int
	// full operand sizes in bytes (A: M×K, B: K×N, C: M×N; vector-kind
	// ops set only A and C)
	aBytes, bBytes, cBytes int64
	flopsPerElem           int
	hasB                   bool
}

func shapeOf(e *expr.Expr) opShape {
	s := opShape{kind: e.Kind, M: 1, N: 1, K: 1, kh: 1, kw: 1,
		elem: e.Output.Elem.Size(), flopsPerElem: e.FLOPsPerPoint}
	first := e.Inputs[0]
	for a, ax := range e.Axes {
		switch ax.Kind {
		case expr.Spatial:
			if expr.ContainsAxis(first, a) {
				s.M *= ax.Size
			} else {
				s.N *= ax.Size
			}
		case expr.Reduce:
			s.K *= ax.Size
			for _, in := range e.Inputs {
				d := expr.AxisDim(in, a)
				if d >= 0 && in.Dims[d].Compound() {
					if s.kh == 1 {
						s.kh = ax.Size
					} else {
						s.kw = ax.Size
					}
				}
			}
		case expr.Gather:
			// the table contributes to operand volume via K
			s.K *= 1
		}
	}
	s.aBytes = int64(s.M) * int64(s.K) * int64(s.elem)
	s.bBytes = int64(s.K) * int64(s.N) * int64(s.elem)
	s.cBytes = int64(s.M) * int64(s.N) * int64(s.elem)
	s.hasB = len(e.Inputs) > 1
	if !s.hasB {
		s.bBytes = 0
	}
	return s
}

// workingSet returns the per-core bytes of one tile's operands.
func (s *opShape) workingSet(t tile) int64 {
	ws := int64(t.m)*int64(t.k)*int64(s.elem) + int64(t.m)*int64(t.n)*int64(s.elem)
	if s.hasB {
		ws += int64(t.k) * int64(t.n) * int64(s.elem)
	}
	return ws
}

// tiles returns the number of tiles a choice induces.
func (s *opShape) tiles(t tile) int {
	return mathutil.CeilDiv(s.M, t.m) * mathutil.CeilDiv(s.N, t.n) * mathutil.CeilDiv(s.K, t.k)
}

// task builds the kernel descriptor of one tile.
func (s *opShape) task(t tile) kernel.Task {
	return kernel.Task{
		Kind: s.kind, M: t.m, N: t.n, K: t.k, KH: s.kh, KW: s.kw,
		Elems:        int64(t.m) * int64(t.n),
		FLOPsPerElem: max(s.flopsPerElem, 1) * t.k,
		InBytes:      int64(t.m)*int64(t.k)*int64(s.elem) + int64(t.k)*int64(t.n)*int64(s.elem),
		OutBytes:     int64(t.m) * int64(t.n) * int64(s.elem),
	}
}

// pow2Candidates lists power-of-two values up to n, plus n itself.
func pow2Candidates(n int) []int {
	var out []int
	for v := 1; v < n; v *= 2 {
		out = append(out, v)
	}
	out = append(out, n)
	return out
}

// selectTile picks the execution tile for one operator under the given
// per-core memory budget, according to the baseline's strategy. It
// returns an error when nothing fits (the ✖ of Fig 12).
func (c *Compiler) selectTile(s opShape, memBudget int64) (tile, error) {
	switch c.Kind {
	case PopART:
		// Fixed vendor-library heuristic: a balanced output grid of
		// roughly C cores (rows and columns split in proportion to the
		// operand shape), the reduction serialized in fixed 1K chunks,
		// and a static runtime reservation. No memory/communication
		// trade-off is explored — exactly the rigidity §6.2 describes.
		const vendorReserve = 96 * 1024
		budget := memBudget - vendorReserve
		gm := 1
		if s.N > 0 {
			for gm*gm < c.Spec.Cores*s.M/max(s.N, 1) {
				gm++
			}
		}
		gm = min(gm, s.M, c.Spec.Cores)
		gn := min(max(c.Spec.Cores/gm, 1), s.N)
		t := tile{
			m: max(1, mathutil.CeilDiv(s.M, gm)),
			n: max(1, mathutil.CeilDiv(s.N, gn)),
			k: min(s.K, 1024),
		}
		if s.workingSet(t) > budget {
			return tile{}, fmt.Errorf("vgm: PopART working set %d exceeds budget %d", s.workingSet(t), budget)
		}
		return t, nil
	case Roller:
		return c.rollerTile(s, memBudget)
	case Ansor:
		return c.ansorTile(s, memBudget)
	}
	panic("vgm: unknown kind")
}

// rollerTile grows aligned tiles and keeps the best by compute
// intensity, preferring configurations that keep at least 90% of cores
// busy.
func (c *Compiler) rollerTile(s opShape, memBudget int64) (tile, error) {
	best, bestOK := tile{}, false
	var bestIntensity float64
	bestBusy := false
	minTiles := int(0.9 * float64(c.Spec.Cores))
	for _, tm := range pow2Candidates(s.M) {
		for _, tn := range pow2Candidates(s.N) {
			for _, tk := range pow2Candidates(s.K) {
				t := tile{m: tm, n: tn, k: tk}
				if s.workingSet(t) > memBudget {
					continue
				}
				busy := s.tiles(t) >= minTiles
				flops := float64(tm) * float64(tn) * float64(tk)
				loaded := float64(tm*tk + tk*tn + tm*tn)
				intensity := flops / loaded
				better := false
				switch {
				case !bestOK:
					better = true
				case busy != bestBusy:
					better = busy
				default:
					better = intensity > bestIntensity
				}
				if better {
					best, bestOK, bestIntensity, bestBusy = t, true, intensity, busy
				}
			}
		}
	}
	if !bestOK {
		return tile{}, fmt.Errorf("vgm: no Roller tile fits %d bytes", memBudget)
	}
	return best, nil
}

// ansorTile randomly samples the tile space and keeps the fastest
// estimate within the budget.
func (c *Compiler) ansorTile(s opShape, memBudget int64) (tile, error) {
	rng := rand.New(rand.NewSource(7))
	ms, ns, ks := pow2Candidates(s.M), pow2Candidates(s.N), pow2Candidates(s.K)
	best, bestOK := tile{}, false
	var bestNs float64
	for i := 0; i < c.AnsorBudget; i++ {
		t := tile{m: ms[rng.Intn(len(ms))], n: ns[rng.Intn(len(ns))], k: ks[rng.Intn(len(ks))]}
		if s.workingSet(t) > memBudget {
			continue
		}
		rounds := mathutil.CeilDiv(s.tiles(t), c.Spec.Cores)
		est := float64(rounds) * (kernel.Nanoseconds(c.Spec, s.task(t)) +
			float64(s.workingSet(t))/c.Spec.LinkBytesPerNs())
		if !bestOK || est < bestNs {
			best, bestOK, bestNs = t, true, est
		}
	}
	if !bestOK {
		return tile{}, fmt.Errorf("vgm: no Ansor tile fits %d bytes", memBudget)
	}
	return best, nil
}
