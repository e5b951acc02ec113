// Package codegen lowers compute-shift plans (internal/core) onto the
// simulated chip (internal/sim) through the paper's abstracted device
// interface (§4.4): allocate places tensor partitions, compute emits one
// homogeneous ComputeSet per step, and shift emits the ring exchanges
// between steps (§5's multi-copy shift with a bounded temporary buffer).
//
// Two lowerings share the same step/shift schedule:
//
//   - Lower produces a timing program for the BSP simulator (used by all
//     end-to-end experiments).
//   - Execute runs the plan functionally on the data machine, with real
//     float32 buffers rotating between cores; tests compare the result
//     against the reference einsum, which is the repository's proof that
//     the rTensor alignment and skewed placement are correct.
package codegen

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/kernel"
	"repro/internal/sim"
)

// stepAdvances returns the loop digits of step t (window positions per
// LoopOrder axis, innermost fastest).
func stepAdvances(p *core.Plan, t int) []int {
	digits := make([]int, len(p.LoopOrder))
	for i := len(p.LoopOrder) - 1; i >= 0; i-- {
		s := p.StepsPerAxis[p.LoopOrder[i]]
		digits[i] = t % s
		t /= s
	}
	return digits
}

// advancingAxes returns the LoopOrder indexes whose digit advances when
// the step counter increments past t (the innermost axis always, plus
// every axis whose digit wraps).
func advancingAxes(p *core.Plan, t int) []int {
	var idx []int
	for i := len(p.LoopOrder) - 1; i >= 0; i-- {
		idx = append(idx, i)
		if (t+1)%strideOf(p, i) != 0 {
			break
		}
	}
	return idx
}

// strideOf returns how many steps pass between advances of LoopOrder[i]:
// the product of the step counts of all inner axes plus itself.
func strideOf(p *core.Plan, i int) int {
	n := 1
	for j := i; j < len(p.LoopOrder); j++ {
		n *= p.StepsPerAxis[p.LoopOrder[j]]
	}
	return n
}

// ringStride returns a representative physical core-id stride for the
// shift ring of axis a on grid g (used by the simulator's chip-boundary
// model).
func ringStride(p *core.Plan, g *core.Grid, a int) int {
	coords := g.Coords(0, nil)
	for ti := range p.Tensors {
		rt := &p.Tensors[ti]
		for ri, d := range rt.RotDims {
			if rt.Ref.Dims[d].Terms[0].Axis != a {
				continue
			}
			s := p.RingNeighbor(g, rt, coords, ri, 1) // neighbor of core 0
			if s < 0 {
				s = -s
			}
			if s == 0 {
				s = 1
			}
			return s
		}
	}
	return 1
}

// Lower converts a plan into a timing program. It first validates the
// skewed placement (once per plan, see core.Plan.ValidatePlacement); a
// plan that cannot be placed consistently must never be priced or
// executed. Lower never writes to p: cached plans are shared by
// concurrent lowerings.
func Lower(spec *device.Spec, p *core.Plan) (*sim.Program, error) {
	if p.Cores > spec.Cores {
		return nil, fmt.Errorf("codegen: plan needs %d cores, device has %d", p.Cores, spec.Cores)
	}
	if err := p.ValidatePlacement(); err != nil {
		return nil, err
	}
	order := p.GridOrder
	if spec.Chips > 1 && order == nil {
		// keep heavy rotation rings on physically adjacent cores so they
		// stay inside one chip (§7's inter-chip optimization)
		order = p.OptimizedGridOrder()
	}
	grid := p.GridFor(order)
	// every advance along a loop axis ships the same tile over the same ring
	tiles := make([]int64, len(p.LoopOrder))
	strides := make([]int, len(p.LoopOrder))
	for i, a := range p.LoopOrder {
		tiles[i] = p.ShiftTileBytes(a)
		strides[i] = ringStride(p, grid, a)
	}
	prog := &sim.Program{MemPerCore: p.MemPerCore()}
	stepNs := kernel.Nanoseconds(spec, p.KernelTask())
	buf := int64(p.Cfg.ShiftBufBytes)
	for t := 0; t < p.TotalSteps; t++ {
		prog.Phases = append(prog.Phases, sim.Phase{ComputeNs: stepNs})
		// The multi-copy shift (§5) stages at most ShiftBufBytes per
		// exchange: oversized tiles split into several ring phases, each
		// paying its own startup and sync — exactly the trade-off the
		// shift-buffer size controls.
		for _, i := range advancingAxes(p, t) {
			for remaining := tiles[i]; remaining > 0; remaining -= buf {
				prog.Phases = append(prog.Phases, sim.Phase{
					Exch: &sim.Exchange{Pattern: sim.Ring, BytesPerCore: min(remaining, buf), Stride: strides[i]},
				})
			}
		}
	}
	if p.ReduceShare > 1 {
		appendAllReduce(prog, p)
	}
	return prog, nil
}

// appendAllReduce adds the ring all-reduce combining partial outputs
// when a reduction axis was spatially partitioned: a reduce-scatter
// followed by an all-gather, 2·(P−1) phases moving SubBytes/P each.
func appendAllReduce(prog *sim.Program, p *core.Plan) {
	out := &p.Tensors[len(p.Tensors)-1]
	share := p.ReduceShare
	chunk := out.SubBytes() / int64(share)
	for i := 0; i < 2*(share-1); i++ {
		prog.Phases = append(prog.Phases, sim.Phase{
			// reduce-scatter halves also add locally; charge a small
			// vector add per phase through the exchange only (the add is
			// memory-bound and overlaps the next receive on real
			// hardware).
			Exch: &sim.Exchange{Pattern: sim.Ring, BytesPerCore: chunk, Stride: 1},
		})
	}
}

// SetupProgram models an idle→active state transition (§4.3.2): the
// operator's weight bytes re-partition from the idle layout to the
// active layout through an all-to-all exchange. fromIdle == toActive
// layouts cost nothing.
func SetupProgram(spec *device.Spec, weightBytes int64, samePlan bool) *sim.Program {
	if samePlan || weightBytes == 0 {
		return &sim.Program{}
	}
	return &sim.Program{Phases: []sim.Phase{{
		Exch: &sim.Exchange{Pattern: sim.AllToAll, TotalBytes: weightBytes},
	}}}
}

// TransitionProgram models the inter-operator layout adjustment of §5:
// when consecutive operators disagree on the intermediate tensor's
// partitioning, an all-to-all exchange re-arranges it.
func TransitionProgram(spec *device.Spec, tensorBytes int64) *sim.Program {
	if tensorBytes == 0 {
		return &sim.Program{}
	}
	return &sim.Program{Phases: []sim.Phase{{
		Exch: &sim.Exchange{Pattern: sim.AllToAll, TotalBytes: tensorBytes},
	}}}
}
