package codegen

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/sim"
)

// Execute runs the plan functionally on the data machine: tensor
// partitions are placed with the skewed window assignment, every step
// computes the local sub-task from purely local buffers, and rotations
// really move the data between cores. The returned output equals the
// reference einsum when (and only when) the whole compute-shift
// machinery — alignment, placement, shift schedule, accumulation — is
// correct, so this is the repository's end-to-end correctness oracle.
//
// Functional execution requires exactly divisible partitionings (no
// padding): the timing path handles padded plans, but numerically
// verifying them would need masked reference arithmetic for no extra
// coverage.
func Execute(p *core.Plan, inputs map[string][]float32) ([]float32, error) {
	e := p.Expr
	for a, ax := range e.Axes {
		if ax.Kind == expr.Gather {
			return nil, fmt.Errorf("codegen: functional execution does not support gather axes")
		}
		if p.SubLen[a]*p.Fop[a] != ax.Size {
			return nil, fmt.Errorf("codegen: axis %s (size %d) not divisible into %d×%d",
				ax.Name, ax.Size, p.Fop[a], p.SubLen[a])
		}
	}
	if err := p.ValidatePlacement(); err != nil {
		return nil, err
	}

	m := sim.NewDataMachine(p.Cores)
	grid := p.Grid()

	// shapes of the full tensors
	fullShapes := make([][]int, len(p.Tensors))
	for ti := range p.Tensors {
		fullShapes[ti] = e.TensorShape(p.Tensors[ti].Ref)
	}

	// --- allocate + place ------------------------------------------------
	for c := 0; c < p.Cores; c++ {
		coords := grid.Coords(c, nil)
		for ti := range p.Tensors {
			rt := &p.Tensors[ti]
			buf := make([]float32, rt.PartElems())
			if !rt.IsOutput {
				in, ok := inputs[rt.Ref.Name]
				if !ok {
					return nil, fmt.Errorf("codegen: missing input %s", rt.Ref.Name)
				}
				fillPartition(p, rt, coords, fullShapes[ti], in, buf)
			}
			m.Alloc(c, rt.Ref.Name, len(buf))
			copy(m.Buf(c, rt.Ref.Name), buf)
		}
	}

	// --- compute-shift loop ----------------------------------------------
	for t := 0; t < p.TotalSteps; t++ {
		digits := stepAdvances(p, t)
		for c := 0; c < p.Cores; c++ {
			computeStep(p, m, grid.Coords(c, nil), c, digits)
		}
		// Shift after every step, including the final rewind that restores
		// the initial placement. When several loop axes advance at a wrap
		// boundary the rotations compose, so they apply one axis at a time
		// (they are circular shifts along orthogonal dims and commute).
		for _, i := range advancingAxes(p, t) {
			if copies := shiftCopiesAxis(p, grid, p.LoopOrder[i]); len(copies) > 0 {
				m.ExchangeAll(copies)
			}
		}
	}

	// --- gather output ----------------------------------------------------
	// Each core's output partition holds its partial (or complete) sums;
	// accumulating across all cores yields the full result, including the
	// ReduceShare > 1 case where sub-tensors are replicated as partials.
	outRef := e.Output
	outShape := fullShapes[len(p.Tensors)-1]
	out := make([]float32, e.TensorElems(outRef))
	outRT := &p.Tensors[len(p.Tensors)-1]
	for c := 0; c < p.Cores; c++ {
		coords := grid.Coords(c, nil)
		// With ReduceShare > 1 every replica holds the partial sums of its
		// own reduction slice, so accumulating all cores is exactly the
		// all-reduce the timing path prices.
		addPartition(p, outRT, coords, outShape, m.Buf(c, outRef.Name), out)
	}
	return out, nil
}

// subCoordBase returns, per dim of rt, the offset of the core's
// sub-tensor within the full tensor.
func subCoordBase(p *core.Plan, rt *core.RTensor, coords []int) []int {
	base := make([]int, len(rt.Ref.Dims))
	for d, dim := range rt.Ref.Dims {
		off := 0
		for _, tm := range dim.Terms {
			off += tm.Stride * coords[tm.Axis] * p.SubLen[tm.Axis]
		}
		base[d] = off
	}
	return base
}

// windowStarts returns rt's current window start per dim (zero for
// non-rotating dims) at the rotation state given by digits.
func windowStarts(p *core.Plan, rt *core.RTensor, coords []int, digits []int) []int {
	w := make([]int, len(rt.Ref.Dims))
	for _, d := range rt.RotDims {
		a := rt.Ref.Dims[d].Terms[0].Axis
		adv := 0
		if digits != nil {
			for i, ax := range p.LoopOrder {
				if ax == a {
					adv = digits[i]
				}
			}
		}
		w[d] = (p.WindowStart(a, coords) + adv*p.RPAxis[a]) % rt.SubShape[d]
	}
	return w
}

// fillPartition loads the core's initial partition of rt from the full
// tensor: for each local element, the sub-tensor coordinate is the
// (window-relative) local index plus the window start, and the global
// coordinate adds the sub-tensor base.
func fillPartition(p *core.Plan, rt *core.RTensor, coords []int, fullShape []int, full, buf []float32) {
	base := subCoordBase(p, rt, coords)
	w0 := windowStarts(p, rt, coords, nil)
	nd := len(rt.PartShape)
	idx := make([]int, nd)
	for flat := range buf {
		// decompose flat into local indices (row-major)
		rem := flat
		for d := nd - 1; d >= 0; d-- {
			idx[d] = rem % rt.PartShape[d]
			rem /= rt.PartShape[d]
		}
		g := 0
		ok := true
		for d := 0; d < nd; d++ {
			sub := idx[d]
			if rt.RP[d] > 0 || rt.Ft[d] > 1 {
				sub = (w0[d] + idx[d]) % rt.SubShape[d]
			}
			coord := base[d] + sub
			if coord >= fullShape[d] {
				ok = false
				break
			}
			g = g*fullShape[d] + coord
		}
		if ok {
			buf[flat] = full[g]
		}
	}
}

// addPartition accumulates the core's output partition into the full
// output tensor.
func addPartition(p *core.Plan, rt *core.RTensor, coords []int, fullShape []int, buf, out []float32) {
	base := subCoordBase(p, rt, coords)
	nd := len(rt.PartShape)
	idx := make([]int, nd)
	for flat := range buf {
		rem := flat
		for d := nd - 1; d >= 0; d-- {
			idx[d] = rem % rt.PartShape[d]
			rem /= rt.PartShape[d]
		}
		g := 0
		for d := 0; d < nd; d++ {
			g = g*fullShape[d] + base[d] + idx[d]
		}
		out[g] += buf[flat]
	}
}

// computeStep executes one sub-task on one core: the generic einsum over
// the current axis windows, reading rotating tensors window-relative.
func computeStep(p *core.Plan, m *sim.DataMachine, coords []int, c int, digits []int) {
	e := p.Expr
	ext := p.SubTaskExtents()

	// current window offset per axis
	axisOff := make([]int, len(e.Axes))
	for i, a := range p.LoopOrder {
		axisOff[a] = (p.WindowStart(a, coords) + digits[i]*p.RPAxis[a]) % p.SubLen[a]
	}

	bufs := make([][]float32, len(p.Tensors))
	w0s := make([][]int, len(p.Tensors))
	for ti := range p.Tensors {
		rt := &p.Tensors[ti]
		bufs[ti] = m.Buf(c, rt.Ref.Name)
		w0s[ti] = windowStarts(p, rt, coords, digits)
	}

	// iterate the sub-task's axis space
	axIdx := make([]int, len(e.Axes))
	var rec func(a int)
	rec = func(a int) {
		if a == len(e.Axes) {
			prod := float32(1)
			for ti := 0; ti < len(p.Tensors)-1; ti++ {
				rt := &p.Tensors[ti]
				prod *= bufs[ti][localIndex(p, rt, w0s[ti], axIdx)]
			}
			oi := len(p.Tensors) - 1
			bufs[oi][localIndex(p, &p.Tensors[oi], w0s[oi], axIdx)] += prod
			return
		}
		off := axisOff[a]
		for v := 0; v < ext[a]; v++ {
			axIdx[a] = (off + v) % p.SubLen[a]
			rec(a + 1)
		}
	}
	rec(0)
}

// localIndex maps sub-operator axis indices to a flat index in rt's
// local partition buffer: sub-tensor coordinates per dim, made window-
// relative along rotating dims.
func localIndex(p *core.Plan, rt *core.RTensor, w0 []int, axIdx []int) int {
	flat := 0
	for d, dim := range rt.Ref.Dims {
		sub := 0
		for _, tm := range dim.Terms {
			sub += tm.Stride * axIdx[tm.Axis]
		}
		local := sub
		if rt.Ft[d] > 1 {
			local = ((sub-w0[d])%rt.SubShape[d] + rt.SubShape[d]) % rt.SubShape[d]
		}
		flat = flat*rt.PartShape[d] + local
	}
	return flat
}

// shiftCopiesAxis builds the exchange for one advance along axis a: for
// every tensor rotating on it, slide the window by rp — keep the top
// partLen−rp rows locally, receive rp fresh rows from the upstream ring
// neighbor.
func shiftCopiesAxis(p *core.Plan, grid *core.Grid, a int) []sim.Copy {
	var copies []sim.Copy
	coords := make([]int, len(p.Fop))
	{
		rp := p.RPAxis[a]
		for ti := range p.Tensors {
			rt := &p.Tensors[ti]
			for ri, d := range rt.RotDims {
				if rt.Ref.Dims[d].Terms[0].Axis != a {
					continue
				}
				pl := rt.PartShape[d]
				name := rt.Ref.Name
				// strides for slicing along dim d
				outer := 1
				for dd := 0; dd < d; dd++ {
					outer *= rt.PartShape[dd]
				}
				inner := 1
				for dd := d + 1; dd < len(rt.PartShape); dd++ {
					inner *= rt.PartShape[dd]
				}
				for c := 0; c < p.Cores; c++ {
					grid.Coords(c, coords)
					up := p.RingNeighbor(grid, rt, coords, ri, 1)
					for o := 0; o < outer; o++ {
						rowBase := o * pl * inner
						// local slide: rows [rp, pl) -> [0, pl-rp)
						if pl > rp {
							copies = append(copies, sim.Copy{
								SrcCore: c, SrcBuf: name, SrcOff: rowBase + rp*inner,
								DstCore: c, DstBuf: name, DstOff: rowBase,
								N: (pl - rp) * inner,
							})
						}
						// receive rows [0, rp) of upstream into [pl-rp, pl)
						copies = append(copies, sim.Copy{
							SrcCore: up, SrcBuf: name, SrcOff: rowBase,
							DstCore: c, DstBuf: name, DstOff: rowBase + (pl-rp)*inner,
							N: rp * inner,
						})
					}
				}
			}
		}
	}
	return copies
}
