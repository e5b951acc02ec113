package core

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"repro/internal/expr"
	"repro/internal/mathutil"
)

// Config carries plan-construction knobs.
type Config struct {
	// ShiftBufBytes is the per-core temporary buffer used by the
	// multi-copy shift mechanism (§5); 8 KB by default. Larger buffers
	// cost memory; smaller ones need more shift iterations per step.
	ShiftBufBytes int
}

// DefaultConfig returns the paper's defaults.
func DefaultConfig() Config { return Config{ShiftBufBytes: 8 * 1024} }

// Plan is one compute-shift execution plan for one operator.
type Plan struct {
	Expr *expr.Expr
	Cfg  Config

	// Fop is the operator partition factor per axis (Table 1).
	Fop []int

	// Cores is the number of sub-operators, ∏ Fop.
	Cores int

	// SubLen is the padded per-axis extent of one sub-operator.
	SubLen []int

	// RPAxis is the rotating pace per axis; equals SubLen for axes that
	// need no rotation.
	RPAxis []int

	// StepsPerAxis is S_a = SubLen_a / RPAxis_a — the number of
	// compute-shift steps the nested loop makes along each axis.
	StepsPerAxis []int

	// Tensors holds one rTensor per operator tensor (inputs then output).
	Tensors []RTensor

	// LoopOrder lists the iterated axes (StepsPerAxis > 1) from the
	// outermost to the innermost loop. Axes whose rotating tensors shift
	// bigger tiles are placed outermost so they advance least often
	// (§4.4's loop-order rule).
	LoopOrder []int

	// TotalSteps is ∏ StepsPerAxis.
	TotalSteps int

	// ReduceShare is the sharing degree of the output (∏ Fop over
	// spatially partitioned reduction axes). Values > 1 mean each output
	// sub-tensor is accumulated as partials on ReduceShare cores and
	// combined by a ring all-reduce after the loop.
	ReduceShare int

	// GridOrder permutes axis significance in the physical core grid
	// (first varies slowest). Empty means declaration order. See
	// OptimizedGridOrder.
	GridOrder []int

	// placementOnce guards placementErr, ValidatePlacement's memoised
	// answer. A Plan is only ever handled by pointer.
	placementOnce sync.Once
	placementErr  error
}

// OptimizedGridOrder returns the axis significance order that keeps
// heavy rotation rings on physically nearby cores: rings vary the
// coordinates of their tensor's missing axes, so the axes carrying the
// most shift traffic become the fastest-varying grid positions. On
// multi-chip targets this keeps rotations inside a chip and off the
// far slower IPU-Link — the inter-chip optimization sketched in the
// paper's §7 ("Apply T10 to multiple chips"). It does not write
// GridOrder: a cached plan is shared by concurrent lowerings.
func (p *Plan) OptimizedGridOrder() []int {
	weight := make([]int64, len(p.Fop))
	for ti := range p.Tensors {
		rt := &p.Tensors[ti]
		if !rt.Rotates() {
			continue
		}
		var traffic int64
		for _, d := range rt.RotDims {
			a := rt.Ref.Dims[d].Terms[0].Axis
			traffic += rt.PartBytes() * int64(p.RPAxis[a]) / int64(rt.PartShape[d]) *
				int64(p.Advances(a))
		}
		for _, a := range rt.Missing {
			weight[a] += traffic
		}
	}
	order := make([]int, len(p.Fop))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool {
		// light (or no) ring traffic first = slowest-varying
		return weight[order[i]] < weight[order[j]]
	})
	return order
}

// NewPlan derives a complete compute-shift plan from the operator
// partition factor and per-tensor temporal factors.
//
// fts[t][d] is the temporal partition factor of tensor t (ordering of
// Expr.Tensors()) along its dim d; nil means all ones. NewPlan validates
// the paper's constraints (§4.2): temporal products divide sharing
// degrees, rotating paces never exceed partition lengths, and rotations
// along a shared axis stay aligned.
func NewPlan(e *expr.Expr, fop []int, fts [][]int, cfg Config) (*Plan, error) {
	if len(fop) != len(e.Axes) {
		return nil, fmt.Errorf("plan %s: Fop has %d entries for %d axes", e.Name, len(fop), len(e.Axes))
	}
	if cfg.ShiftBufBytes <= 0 {
		cfg.ShiftBufBytes = DefaultConfig().ShiftBufBytes
	}
	p := &Plan{Expr: e, Cfg: cfg, Fop: append([]int(nil), fop...)}
	p.Cores = 1
	for a, f := range fop {
		ax := e.Axes[a]
		if f < 1 || f > ax.Size {
			return nil, fmt.Errorf("plan %s: Fop[%s]=%d out of range 1..%d", e.Name, ax.Name, f, ax.Size)
		}
		p.Cores *= f
	}

	tensors := e.Tensors()
	nt := len(tensors)
	if fts == nil {
		fts = make([][]int, nt)
	}
	if len(fts) != nt {
		return nil, fmt.Errorf("plan %s: fts has %d entries for %d tensors", e.Name, len(fts), nt)
	}

	// Raw (unpadded) sub-operator extents.
	raw := make([]int, len(e.Axes))
	for a := range e.Axes {
		raw[a] = mathutil.CeilDiv(e.Axes[a].Size, fop[a])
	}

	// First pass: build rTensor skeletons (sharing degrees, temporal
	// factors) and collect per-axis temporal factors for alignment.
	p.Tensors = make([]RTensor, nt)
	axisFts := make([][]int, len(e.Axes)) // temporal factors acting on each axis
	for ti, tr := range tensors {
		rt := &p.Tensors[ti]
		rt.Index = ti
		rt.Ref = tr
		rt.IsOutput = ti == nt-1
		nd := len(tr.Dims)
		rt.Fs = make([]int, nd)
		rt.Ft = make([]int, nd)
		rt.RP = make([]int, nd)
		for d, dim := range tr.Dims {
			fs := 1
			for _, tm := range dim.Terms {
				fs *= fop[tm.Axis]
			}
			rt.Fs[d] = fs
			rt.Ft[d] = 1
		}
		// sharing degree: product of Fop over missing axes
		rt.ShareP = 1
		for a := range e.Axes {
			if fop[a] > 1 && !expr.ContainsAxis(tr, a) {
				rt.Missing = append(rt.Missing, a)
				rt.ShareP *= fop[a]
			}
		}
		// temporal factors
		ft := fts[ti]
		if ft != nil {
			if len(ft) != nd {
				return nil, fmt.Errorf("plan %s: tensor %s ft has %d entries for %d dims", e.Name, tr.Name, len(ft), nd)
			}
			for d, f := range ft {
				if f < 1 {
					return nil, fmt.Errorf("plan %s: tensor %s ft[%d]=%d", e.Name, tr.Name, d, f)
				}
				if f == 1 {
					continue
				}
				dim := tr.Dims[d]
				if dim.Compound() || dim.Terms[0].Stride != 1 {
					return nil, fmt.Errorf("plan %s: tensor %s dim %d is compound/strided and cannot be temporally partitioned", e.Name, tr.Name, d)
				}
				if rt.IsOutput {
					return nil, fmt.Errorf("plan %s: output tensor %s cannot be temporally partitioned", e.Name, tr.Name)
				}
				rt.Ft[d] = f
				rt.RotDims = append(rt.RotDims, d)
			}
		}
		ftProd := rt.FtProd()
		if ftProd > 1 && rt.ShareP%ftProd != 0 {
			return nil, fmt.Errorf("plan %s: tensor %s ∏ft=%d does not divide sharing degree %d",
				e.Name, tr.Name, ftProd, rt.ShareP)
		}
		if rt.ShareP > 0 {
			rt.Rings = rt.ShareP / max(ftProd, 1)
		}
		for _, d := range rt.RotDims {
			a := tr.Dims[d].Terms[0].Axis
			axisFts[a] = append(axisFts[a], rt.Ft[d])
		}
	}

	// Alignment check: two tensors rotating on the same axis must have
	// disjoint sharing groups, otherwise the skewed placement cannot
	// tile both rings (Fig 7's alignment requirement).
	for a := range e.Axes {
		if len(axisFts[a]) < 2 {
			continue
		}
		var rotators []*RTensor
		for ti := range p.Tensors {
			rt := &p.Tensors[ti]
			for _, d := range rt.RotDims {
				if rt.Ref.Dims[d].Terms[0].Axis == a {
					rotators = append(rotators, rt)
				}
			}
		}
		for i := 0; i < len(rotators); i++ {
			for j := i + 1; j < len(rotators); j++ {
				if sharesAxis(rotators[i].Missing, rotators[j].Missing) {
					return nil, fmt.Errorf("plan %s: tensors %s and %s rotate on axis %s with overlapping sharing groups",
						e.Name, rotators[i].Ref.Name, rotators[j].Ref.Name, e.Axes[a].Name)
				}
			}
		}
	}

	// Per-axis padding and pace: SubLen_a is raw extent rounded up to a
	// multiple of lcm(all temporal factors on a), rp is the minimum
	// partition length (the paper fixes rp there to maximize compute
	// intensity), steps = max temporal factor.
	p.SubLen = make([]int, len(e.Axes))
	p.RPAxis = make([]int, len(e.Axes))
	p.StepsPerAxis = make([]int, len(e.Axes))
	p.TotalSteps = 1
	for a := range e.Axes {
		l := mathutil.LCMAll(axisFts[a]...)
		p.SubLen[a] = mathutil.RoundUp(raw[a], l)
		ftmax := slices.Max(append([]int{1}, axisFts[a]...))
		p.RPAxis[a] = p.SubLen[a] / ftmax
		p.StepsPerAxis[a] = ftmax
		p.TotalSteps *= ftmax
	}

	// Second pass: shapes and paces per tensor.
	for ti := range p.Tensors {
		rt := &p.Tensors[ti]
		nd := len(rt.Ref.Dims)
		rt.SubShape = make([]int, nd)
		rt.PartShape = make([]int, nd)
		for d, dim := range rt.Ref.Dims {
			rt.SubShape[d] = e.DimSize(dim, p.SubLen)
			if rt.SubShape[d]%rt.Ft[d] != 0 {
				return nil, fmt.Errorf("plan %s: tensor %s dim %d length %d not divisible by ft %d",
					e.Name, rt.Ref.Name, d, rt.SubShape[d], rt.Ft[d])
			}
			rt.PartShape[d] = rt.SubShape[d] / rt.Ft[d]
			if rt.Ft[d] > 1 {
				a := dim.Terms[0].Axis
				rt.RP[d] = p.RPAxis[a]
				if rt.RP[d] > rt.PartShape[d] {
					return nil, fmt.Errorf("plan %s: tensor %s rp %d exceeds partition length %d",
						e.Name, rt.Ref.Name, rt.RP[d], rt.PartShape[d])
				}
			}
		}
	}

	// Output sharing: spatially partitioned reduce axes leave partial
	// sums on ReduceShare cores.
	p.ReduceShare = p.Tensors[nt-1].ShareP

	// Loop order: iterated axes, outermost first by descending shift
	// tile size; ties break by axis index for determinism.
	type axisTile struct {
		axis int
		tile int64
	}
	var iterated []axisTile
	for a := range e.Axes {
		if p.StepsPerAxis[a] > 1 {
			iterated = append(iterated, axisTile{axis: a, tile: p.ShiftTileBytes(a)})
		}
	}
	sort.Slice(iterated, func(i, j int) bool {
		if iterated[i].tile != iterated[j].tile {
			return iterated[i].tile > iterated[j].tile
		}
		return iterated[i].axis < iterated[j].axis
	})
	p.LoopOrder = make([]int, len(iterated))
	for i, at := range iterated {
		p.LoopOrder[i] = at.axis
	}
	return p, nil
}

// shiftTileBytes returns the bytes every core ships when the loop
// advances once along axis a: for each tensor rotating on a, a tile of
// its partition with the axis extent replaced by rp.
func (p *Plan) ShiftTileBytes(a int) int64 {
	var total int64
	for ti := range p.Tensors {
		rt := &p.Tensors[ti]
		for _, d := range rt.RotDims {
			if rt.Ref.Dims[d].Terms[0].Axis != a {
				continue
			}
			total += rt.PartBytes() * int64(p.RPAxis[a]) / int64(rt.PartShape[d])
		}
	}
	return total
}

// Advances returns how many times the nested loop advances along axis a
// during a full execution: S_a times per complete cycle, one cycle per
// iteration of the enclosing loops. The wrap-around shift is included —
// it returns tensors to their initial placement so the plan can run
// again (and enclosing loops depend on it).
func (p *Plan) Advances(a int) int {
	n := 0
	for i, ax := range p.LoopOrder {
		if ax != a {
			continue
		}
		n = p.StepsPerAxis[a]
		for j := 0; j < i; j++ {
			n *= p.StepsPerAxis[p.LoopOrder[j]]
		}
		break
	}
	return n
}

// ShiftBytesPerCore returns the total bytes each core ships over a full
// execution of the operator.
func (p *Plan) ShiftBytesPerCore() int64 {
	var total int64
	for _, a := range p.LoopOrder {
		total += p.ShiftTileBytes(a) * int64(p.Advances(a))
	}
	return total
}

// MemPerCore returns the per-core memory footprint of the plan in its
// active state: every tensor partition plus the shift buffer when
// anything rotates.
func (p *Plan) MemPerCore() int64 {
	var mem int64
	rotates := false
	for ti := range p.Tensors {
		mem += p.Tensors[ti].PartBytes()
		if p.Tensors[ti].Rotates() {
			rotates = true
		}
	}
	if rotates {
		mem += int64(p.Cfg.ShiftBufBytes)
	}
	return mem
}

// MemOfTensors returns the per-core bytes of a subset of tensors (used
// for idle-state weight footprints, §4.3.2).
func (p *Plan) MemOfTensors(idxs []int) int64 {
	var mem int64
	for _, i := range idxs {
		mem += p.Tensors[i].PartBytes()
	}
	return mem
}

// SubTaskExtents returns the per-axis extents of one compute step's
// sub-task: rp along iterated axes, the full padded extent elsewhere.
func (p *Plan) SubTaskExtents() []int {
	ext := make([]int, len(p.Expr.Axes))
	copy(ext, p.SubLen)
	for a := range ext {
		if p.StepsPerAxis[a] > 1 {
			ext[a] = p.RPAxis[a]
		}
	}
	return ext
}

// String renders the plan compactly.
func (p *Plan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: Fop=%v cores=%d steps=%d", p.Expr.Name, p.Fop, p.Cores, p.TotalSteps)
	for i := range p.Tensors {
		fmt.Fprintf(&b, "\n  %s", p.Tensors[i].String())
	}
	fmt.Fprintf(&b, "\n  mem/core=%d shift/core=%d", p.MemPerCore(), p.ShiftBytesPerCore())
	return b.String()
}

func sharesAxis(a, b []int) bool {
	for _, x := range a {
		for _, y := range b {
			if x == y {
				return true
			}
		}
	}
	return false
}
