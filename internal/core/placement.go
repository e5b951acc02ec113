package core

import (
	"fmt"
	"sync/atomic"

	"repro/internal/mathutil"
)

// Grid maps between linear core ids [0, Cores) and per-axis grid
// coordinates defined by Fop. The axis significance order is the plan's
// GridOrder: order[0] varies slowest. Placement math lives entirely in
// coordinate space, so the order only decides which logical neighbors
// are physically adjacent — the lever the multi-chip optimization pulls.
type Grid struct {
	fop   []int
	order []int
}

// Grid returns the plan's logical core grid under its GridOrder.
func (p *Plan) Grid() *Grid { return p.GridFor(p.GridOrder) }

// GridFor returns the plan's logical core grid under the given axis
// significance order; an order of the wrong length means declaration
// order.
func (p *Plan) GridFor(order []int) *Grid {
	if len(order) != len(p.Fop) {
		order = make([]int, len(p.Fop))
		for i := range order {
			order[i] = i
		}
	}
	return &Grid{fop: p.Fop, order: order}
}

// Coords writes the grid coordinates of a core into out (allocating if
// nil) and returns it.
func (g *Grid) Coords(core int, out []int) []int {
	if out == nil {
		out = make([]int, len(g.fop))
	}
	for i := len(g.order) - 1; i >= 0; i-- {
		a := g.order[i]
		out[a] = core % g.fop[a]
		core /= g.fop[a]
	}
	return out
}

// Core returns the linear id for grid coordinates.
func (g *Grid) Core(coords []int) int {
	id := 0
	for _, a := range g.order {
		id = id*g.fop[a] + coords[a]
	}
	return id
}

// Cores returns the grid size.
func (g *Grid) Cores() int { return mathutil.Prod(g.fop...) }

// RingCoord describes where a core sits within one tensor's sharing
// group: the ring it belongs to and its position along each rotating dim.
type RingCoord struct {
	Ring int
	// Pos is indexed like RTensor.RotDims.
	Pos []int
}

// missingIndex flattens the coordinates of rt's missing axes (row-major
// in Missing order): the index RingCoordOf splits into ring and
// positions.
func missingIndex(rt *RTensor, fop, coords []int) int {
	e := 0
	for _, a := range rt.Missing {
		e = e*fop[a] + coords[a]
	}
	return e
}

// RingCoordOf computes the ring coordinate of tensor rt on the core with
// the given grid coordinates. Cores sharing a sub-tensor differ exactly
// in the coordinates of rt's missing axes; the flattened missing-axes
// index is split into ∏Ft ring positions (fast half) and Rings ring ids
// (slow half).
func (p *Plan) RingCoordOf(rt *RTensor, coords []int) RingCoord {
	e := missingIndex(rt, p.Fop, coords)
	ftProd := rt.FtProd()
	pos := e % ftProd
	rc := RingCoord{Ring: e / ftProd, Pos: make([]int, len(rt.RotDims))}
	// row-major decomposition over rotating dims
	for i := len(rt.RotDims) - 1; i >= 0; i-- {
		ft := rt.Ft[rt.RotDims[i]]
		rc.Pos[i] = pos % ft
		pos /= ft
	}
	return rc
}

// RingNeighbor returns the core of grid g that is `delta` positions
// further along tensor rt's ring for rotating dim index ri (same ring,
// same other positions). coords must be the source core's grid
// coordinates.
func (p *Plan) RingNeighbor(g *Grid, rt *RTensor, coords []int, ri, delta int) int {
	rc := p.RingCoordOf(rt, coords)
	ft := rt.Ft[rt.RotDims[ri]]
	rc.Pos[ri] = ((rc.Pos[ri]+delta)%ft + ft) % ft
	// recompose the flattened missing-axes index
	pos := 0
	for i := 0; i < len(rt.RotDims); i++ {
		pos = pos*rt.Ft[rt.RotDims[i]] + rc.Pos[i]
	}
	e := rc.Ring*rt.FtProd() + pos
	// spread back into missing-axes coordinates
	out := append([]int(nil), coords...)
	for i := len(rt.Missing) - 1; i >= 0; i-- {
		a := rt.Missing[i]
		out[a] = e % p.Fop[a]
		e /= p.Fop[a]
	}
	return g.Core(out)
}

// WindowStart returns the initial sub-task window start along axis a on
// the core with the given grid coordinates: the sum over tensors
// rotating on a of partition-length × ring-position (the skewed,
// generalized-Cannon placement of Fig 10). Every tensor rotating on a
// uses the same window start, which is what keeps rotations aligned.
func (p *Plan) WindowStart(a int, coords []int) int {
	w := 0
	for ti := range p.Tensors {
		rt := &p.Tensors[ti]
		for ri, d := range rt.RotDims {
			if rt.Ref.Dims[d].Terms[0].Axis != a {
				continue
			}
			rc := p.RingCoordOf(rt, coords)
			w += rt.PartShape[d] * rc.Pos[ri]
		}
	}
	return w % p.SubLen[a]
}

// placementChecks counts the placement proofs actually run (memoised
// answers excluded); see PlacementChecks.
var placementChecks atomic.Int64

// PlacementChecks returns how many placement proofs this process has
// run. ValidatePlacement runs at most one per plan, so a count guard can
// hold it against the number of distinct plans lowered.
func PlacementChecks() int64 { return placementChecks.Load() }

// ValidatePlacement proves the skewed placement consistent: for every
// tensor and rotating dim, every rotation ring holds windows that tile
// the sub-tensor exactly (all window starts congruent modulo the
// partition length, quotients forming a complete residue system). This
// is the §4.4 guarantee that "the initial placement of all sub-tensor
// partitions satisfies the data dependency on each core" and stays
// satisfied after every rotation step.
//
// The proof runs once per plan and its answer is kept, so lowering,
// executing and simulating a plan the cache hands out again costs one
// proof in total. It works in coordinate space, so GridOrder never
// changes the answer; no other field may change after the first call
// (NewPlan builds every plan and nothing edits one afterwards).
func (p *Plan) ValidatePlacement() error {
	p.placementOnce.Do(func() {
		placementChecks.Add(1)
		p.placementErr = p.checkPlacement()
	})
	return p.placementErr
}

// checkPlacement is ValidatePlacement's proof, run on integer ring
// slots. Cores are walked in row-major coordinate order. A core's
// flattened missing-axes index for tensor rt is e = ring·∏Ft +
// Σ pos_i·stride_i, so along rotating dim index ri the core's ring is
// named by e − pos_ri·stride_ri, and among all of rt's rings by
// base = nonMissing·M + e − pos_ri·stride_ri (M = ∏ Fop over the missing
// axes, nonMissing the flattened index of every other axis). base +
// q·stride_ri then maps each (ring, partition q) one-to-one onto
// [0, cores), so the per-ring window residue and the partitions seen
// are two slices of length cores indexed by it. With cores visits, no
// slot seen twice and every slot in range, no ring can miss a partition.
func (p *Plan) checkPlacement() error {
	axisOf := func(rt *RTensor, d int) int { return rt.Ref.Dims[d].Terms[0].Axis }
	// Window start per (rotating axis, core), summed over every tensor
	// rotating on the axis: win[slot[a]*cores + c].
	slot := make([]int, len(p.Fop))
	for a := range slot {
		slot[a] = -1
	}
	rotAxes := 0
	for ti := range p.Tensors {
		rt := &p.Tensors[ti]
		for _, d := range rt.RotDims {
			if a := axisOf(rt, d); slot[a] < 0 {
				slot[a] = rotAxes
				rotAxes++
			}
		}
	}
	if rotAxes == 0 {
		return nil // nothing rotates
	}
	cores := mathutil.Prod(p.Fop...)
	coords := make([]int, len(p.Fop))
	win := make([]int, rotAxes*cores)
	for ti := range p.Tensors {
		rt := &p.Tensors[ti]
		if !rt.Rotates() {
			continue
		}
		ftProd := rt.FtProd()
		clear(coords)
		for c := 0; c < cores; c++ {
			pos := missingIndex(rt, p.Fop, coords) % ftProd
			for ri := len(rt.RotDims) - 1; ri >= 0; ri-- {
				d := rt.RotDims[ri]
				ft := rt.Ft[d]
				win[slot[axisOf(rt, d)]*cores+c] += rt.PartShape[d] * (pos % ft)
				pos /= ft
			}
			nextCoords(coords, p.Fop)
		}
	}
	for a, s := range slot {
		if s >= 0 {
			ws := win[s*cores : (s+1)*cores]
			for c := range ws {
				ws[c] %= p.SubLen[a]
			}
		}
	}

	offset := make([]int, cores) // base → common residue of its window starts, -1 before the first
	seen := make([]bool, cores)  // base + q·stride → partition q already held in that ring
	for ti := range p.Tensors {
		rt := &p.Tensors[ti]
		if !rt.Rotates() {
			continue
		}
		ftProd := rt.FtProd()
		m := 1
		for _, a := range rt.Missing {
			m *= p.Fop[a]
		}
		if m%ftProd != 0 {
			// the sharers end in a short ring, which must miss a partition
			return fmt.Errorf("plan %s: tensor %s: ∏ft=%d does not divide its %d sharers, a ring misses a partition",
				p.Expr.Name, rt.Ref.Name, ftProd, m)
		}
		stride := ftProd
		for _, d := range rt.RotDims {
			ft, pl := rt.Ft[d], rt.PartShape[d]
			stride /= ft
			w := win[slot[axisOf(rt, d)]*cores:]
			for i := range offset {
				offset[i] = -1
			}
			clear(seen)
			clear(coords)
			for c := 0; c < cores; c++ {
				nm, e, mi := 0, 0, 0
				for a, x := range coords {
					if mi < len(rt.Missing) && rt.Missing[mi] == a {
						e = e*p.Fop[a] + x
						mi++
					} else {
						nm = nm*p.Fop[a] + x
					}
				}
				base := nm*m + e - (e%ftProd/stride%ft)*stride
				off := offset[base]
				if off < 0 {
					off = w[c] % pl
					offset[base] = off
				} else if w[c]%pl != off {
					return fmt.Errorf("plan %s: tensor %s dim %d: ring %d has misaligned window starts (%d vs residue %d)",
						p.Expr.Name, rt.Ref.Name, d, base, w[c], off)
				}
				q := (w[c] - off) / pl % ft
				if seen[base+q*stride] {
					return fmt.Errorf("plan %s: tensor %s dim %d: ring %d holds partition %d twice",
						p.Expr.Name, rt.Ref.Name, d, base, q)
				}
				seen[base+q*stride] = true
				nextCoords(coords, p.Fop)
			}
		}
	}
	return nil
}

// nextCoords advances coords to the next core in row-major coordinate
// order (the last axis fastest), wrapping to all zeros after the last.
func nextCoords(coords, fop []int) {
	for a := len(coords) - 1; a >= 0; a-- {
		if coords[a]++; coords[a] < fop[a] {
			return
		}
		coords[a] = 0
	}
}
