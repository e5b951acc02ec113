package core

import (
	"slices"

	"repro/internal/costmodel"
	"repro/internal/device"
	"repro/internal/expr"
	"repro/internal/kernel"
	"repro/internal/mathutil"
)

// Estimate is the planner's prediction for one plan, produced entirely
// from the cost model (§4.3.1) — the simulator never runs during the
// search.
type Estimate struct {
	ComputeNs   float64
	ShiftNs     float64
	AllReduceNs float64
	SyncNs      float64
	TotalNs     float64

	Steps             int
	MemPerCore        int64
	ShiftBytesPerCore int64
}

// KernelTask builds the per-core, per-step sub-task descriptor for the
// cost model and the simulator. The matrix-unit roles follow the first
// input: spatial axes it contains become M (output rows), remaining
// spatial axes become N (output columns), reduce axes become K.
func (p *Plan) KernelTask() kernel.Task {
	return newTaskRoles(p.Expr).task(p.SubTaskExtents(), p.StepsPerAxis)
}

// axisRole says which kernel.Task terms an axis' extent multiplies into.
type axisRole uint8

const (
	roleM      axisRole = iota // spatial, indexed by the first input
	roleN                      // spatial, the remaining output columns
	roleK                      // reduce
	roleWindow                 // reduce inside a compound input dim: K and the conv window
	roleChain                  // first-stage reduce of a fused contraction: ChainK, not K
	roleGather                 // not iterated; its step count shards M
)

// taskRoles derives the sub-task descriptor from the per-axis sub-task
// extents and step counts alone, so both the full Plan and the cheap
// PlanSketch price the identical task. The axis roles depend on the
// expression only and are resolved once (a PlanSketch holds them), so
// the per-leaf bound neither scans tensor dims nor builds a chain set.
type taskRoles struct {
	e    *expr.Expr
	role []axisRole
}

func newTaskRoles(e *expr.Expr) taskRoles {
	r := taskRoles{e: e, role: make([]axisRole, len(e.Axes))}
	for a, ax := range e.Axes {
		switch {
		case ax.Kind == expr.Gather:
			r.role[a] = roleGather
		case ax.Kind == expr.Spatial && expr.ContainsAxis(e.Inputs[0], a):
			r.role[a] = roleM
		case ax.Kind == expr.Spatial:
			r.role[a] = roleN
		case slices.Contains(e.ChainAxes, a):
			r.role[a] = roleChain
		default:
			r.role[a] = roleK
			for _, in := range e.Inputs {
				if d := expr.AxisDim(in, a); d >= 0 && in.Dims[d].Compound() {
					r.role[a] = roleWindow
				}
			}
		}
	}
	return r
}

func (r taskRoles) task(ext, stepsPerAxis []int) kernel.Task {
	// per-step operand traffic: the tile each tensor contributes
	var in int64
	for _, tr := range r.e.Inputs {
		in += tileBytesFor(r.e, tr, ext)
	}
	return r.taskWithBytes(ext, stepsPerAxis, in, tileBytesFor(r.e, r.e.Output, ext))
}

// taskWithBytes is task for a caller that already holds the operand
// bytes at ext: inBytes summed over the inputs' tiles, outBytes the
// output's.
func (r taskRoles) taskWithBytes(ext, stepsPerAxis []int, inBytes, outBytes int64) kernel.Task {
	e := r.e
	t := kernel.Task{
		Kind: e.Kind, KH: 1, KW: 1, FLOPsPerElem: e.FLOPsPerPoint,
		Epilogue: e.EpiloguePerPoint, MidFLOPs: e.MidFLOPsPerPoint,
		InBytes: inBytes, OutBytes: outBytes,
	}
	m, n, k, chainK, gatherSteps := 1, 1, 1, 1, 0
	for a, role := range r.role {
		switch role {
		case roleM:
			m *= ext[a]
		case roleN:
			n *= ext[a]
		case roleChain:
			// priced as the kernel's ChainK depth, not as second-stage K
			chainK *= ext[a]
		case roleWindow:
			if t.KH == 1 {
				t.KH = ext[a]
			} else {
				t.KW = ext[a]
			}
			fallthrough
		case roleK:
			k *= ext[a]
		case roleGather:
			gatherSteps = stepsPerAxis[a]
		}
	}
	t.M, t.N, t.K = m, n, k
	t.Elems = int64(m) * int64(n)
	if len(e.ChainAxes) > 0 {
		t.ChainK = chainK
	}

	// reductions multiply the per-output-point work of vector kernels
	if e.Kind == expr.KindPool || e.Kind == expr.KindReduce {
		t.FLOPsPerElem = max(e.FLOPsPerPoint, 1) * k
	}
	if e.Kind == expr.KindGather && gatherSteps > 1 {
		// each step gathers only the rows whose table entries are in the
		// current rotation window
		t.M = max(1, mathutil.CeilDiv(m, gatherSteps))
	}
	return t
}

// IdealizedNs prices one operator under an idealized output-parallel
// partitioning: spatial axes are split greedily across the cores —
// output rows (axes of the first input) first, then columns — while
// reduce and chain axes stay whole, and the per-core sub-task is
// priced by the analytic kernel model plus one inter-operator boundary
// (an exchange launch and a superstep sync). No search runs and no
// plan is built, so the probe is O(axes) — cheap enough to call inside
// the fusion pass. It deliberately exposes the chained contraction's
// real weakness: splitting output columns does not shrink the
// first-stage reduction, so a fused kernel that recomputes its
// intermediate per column tile stops scaling exactly where the
// unfused pair keeps going.
func IdealizedNs(spec *device.Spec, e *expr.Expr, cores int) float64 {
	ext := make([]int, len(e.Axes))
	steps := make([]int, len(e.Axes))
	for a, ax := range e.Axes {
		ext[a] = ax.Size
		steps[a] = 1
	}
	// Rows are split no finer than the matrix unit's row granularity —
	// a 1-row tile still pays full-height MACs — and the leftover
	// parallelism goes to columns, which is exactly the regime where a
	// chained kernel's column-independent first stage stops scaling.
	rows := 1
	for a, ax := range e.Axes {
		if ax.Kind == expr.Spatial && expr.ContainsAxis(e.Inputs[0], a) {
			rows *= ax.Size
		}
	}
	rowCap := max(1, rows/kernel.AMPRows)
	left := max(cores, 1)
	for pass := 0; pass < 2; pass++ {
		for a, ax := range e.Axes {
			if ax.Kind != expr.Spatial || left <= 1 {
				continue
			}
			if isRow := expr.ContainsAxis(e.Inputs[0], a); isRow != (pass == 0) {
				continue
			}
			split := min(left, ax.Size)
			if pass == 0 {
				split = min(split, rowCap)
			}
			ext[a] = mathutil.CeilDiv(ax.Size, split)
			left /= split
			if pass == 0 {
				rowCap /= split
			}
		}
	}
	t := newTaskRoles(e).task(ext, steps)
	return kernel.Nanoseconds(spec, t) + spec.ExchangeStartupNs + spec.SyncNs
}

// tileBytesFor returns the bytes of tensor tr touched by one sub-task
// with the given per-axis extents.
func tileBytesFor(e *expr.Expr, tr expr.TensorRef, ext []int) int64 {
	n := int64(1)
	for _, d := range tr.Dims {
		n *= int64(e.DimSize(d, ext))
	}
	return n * elemSize(tr.Elem)
}

// shiftIters returns the multi-copy shift iterations needed for one
// advance along axis a (§5): each rotating tensor stages at most
// ShiftBufBytes per iteration.
func (p *Plan) shiftIters(a int) int {
	iters := 1
	for ti := range p.Tensors {
		rt := &p.Tensors[ti]
		for _, d := range rt.RotDims {
			if rt.Ref.Dims[d].Terms[0].Axis != a {
				continue
			}
			tile := rt.PartBytes() * int64(p.RPAxis[a]) / int64(rt.PartShape[d])
			it := int(mathutil.CeilDiv(int(tile), p.Cfg.ShiftBufBytes))
			if it > iters {
				iters = it
			}
		}
	}
	return iters
}

// Estimate prices the plan with the fitted cost model.
func (p *Plan) Estimate(cm *costmodel.Set) Estimate {
	return p.EstimateWith(cm.Spec, cm.Resolve(p.Expr.Name, p.Expr.Kind))
}

// EstimateWith prices the plan with a pre-resolved predictor, avoiding
// the per-call custom-function lookup — the search prices thousands of
// candidates per operator against one handle.
func (p *Plan) EstimateWith(spec *device.Spec, pred costmodel.Predictor) Estimate {
	est := Estimate{
		Steps:             p.TotalSteps,
		MemPerCore:        p.MemPerCore(),
		ShiftBytesPerCore: p.ShiftBytesPerCore(),
	}
	task := p.KernelTask()
	perStep := pred.Predict(task)
	if task.Epilogue != 0 || task.MidFLOPs != 0 {
		// Fitted predictors were profiled on unfused tasks, so the fused
		// epilogue/mid-stage vector work is added analytically — the same
		// term the kernel (and hence the simulator) charges, keeping the
		// estimate and the simulation in agreement on fused kernels.
		perStep += kernel.FusedVectorCycles(spec, task) / spec.ClockGHz
	}
	est.ComputeNs = float64(p.TotalSteps) * perStep

	syncs := float64(p.TotalSteps) // one per compute phase
	for _, a := range p.LoopOrder {
		adv := float64(p.Advances(a))
		tile := p.ShiftTileBytes(a)
		est.ShiftNs += adv * (float64(tile)/spec.LinkBytesPerNs() +
			spec.ExchangeStartupNs*float64(p.shiftIters(a)))
	}
	if len(p.LoopOrder) > 0 {
		syncs += float64(p.TotalSteps) // one per exchange phase
	}

	if p.ReduceShare > 1 {
		out := &p.Tensors[len(p.Tensors)-1]
		phases := 2 * (p.ReduceShare - 1)
		bytes := 2 * out.SubBytes() * int64(p.ReduceShare-1) / int64(p.ReduceShare)
		est.AllReduceNs = float64(bytes)/spec.LinkBytesPerNs() +
			float64(phases)*spec.ExchangeStartupNs
		syncs += float64(phases)
	}

	est.SyncNs = syncs * spec.SyncNs
	est.TotalNs = est.ComputeNs + est.ShiftNs + est.AllReduceNs + est.SyncNs
	return est
}
