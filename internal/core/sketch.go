package core

import (
	"math"
	"slices"

	"repro/internal/costmodel"
	"repro/internal/device"
	"repro/internal/expr"
	"repro/internal/kernel"
	"repro/internal/mathutil"
)

// PlanSketch is the cheap "sketch" phase of candidate evaluation: from
// (Fop, fts) alone it decides plan validity, computes the padded
// sub-operator extents and the exact per-core memory footprint, and
// prices the candidate — all without building rotation state
// (rTensors, loop order, grid order) or allocating per candidate.
//
// The search uses it for bound-based pruning: a prefix whose memory and
// time lower bounds are already dominated by the running Pareto
// frontier is cut with every leaf below it, and each finished leaf is
// priced once with Estimate, whose TotalNs scaled down by 1e-9 is its
// pruning bound — so a Plan is built only for what the search keeps.
// Correctness contract (enforced by property tests):
//
//   - Compute (Begin, Fix per tensor, then Finish) returns true exactly
//     when NewPlan would succeed — and, when PaddingMin is set, the
//     candidate also passes the search's per-axis padding filter;
//   - MemPerCore equals Plan.MemPerCore();
//   - Estimate equals Plan.EstimateWith(...) bit for bit.
//
// A sketch holds reusable scratch buffers; one instance serves one
// goroutine, recomputed per candidate.
type PlanSketch struct {
	e        *expr.Expr
	tensors  []expr.TensorRef
	shiftBuf int64
	roles    taskRoles

	// PaddingMin, when set, is the search's padding rule (§4.3.1:
	// original/padded ≥ PaddingMin on every axis) as a prefix property:
	// Begin and Fix reject the moment an axis' running LCM pads it past
	// the rule. Zero leaves the sketch a pure validity check. A change
	// takes effect at the next Begin.
	PaddingMin float64

	// Cores is valid after Begin; the rest are the results of the last
	// successful Finish (or Compute).
	Cores      int
	TotalSteps int
	MemPerCore int64
	SubLen     []int // padded per-axis sub-operator extent

	// Leaf scratch, filled by Finish's one pass over the tensors; loop by
	// Estimate.
	rpAxis    []int // = the per-step sub-task extents (rp, or SubLen where nothing rotates)
	partBytes []int64
	inBytes   int64   // the kernel task's InBytes at rpAxis
	outBytes  int64   // the kernel task's OutBytes at rpAxis
	tile      []int64 // tile[a] = Plan.ShiftTileBytes(a)
	iters     []int   // iters[a] = Plan.shiftIters(a)
	dimPart   []int   // scratch: the current tensor's per-dim partition extents
	loop      []int

	// padCap[a] is the largest padded extent of axis a the rule accepts
	// (see padCap), for the PaddingMin whose bits are padCapBits.
	padCap     []int
	padCapBits uint64

	// Per-Fop state, filled by Begin.
	pRaw    []int // unpadded sub-operator extents for the Begin Fop
	pPadCap []int // padCap / Fop: the largest padded sub-operator extent
	shareP  []int
	missing [][]int

	// Incremental (partial-assignment) state — see Fix/Unfix.
	pDepth   int     // tensors fixed so far
	pLCM     [][]int // per-depth prefix of the per-axis temporal-factor LCM
	pMax     [][]int // per-depth prefix of the per-axis max temporal factor
	pFts     [][]int // fixed temporal factors, borrowed
	pRotTis  []int   // (tensor, axis) pairs rotating so far, flattened
	pRotAxis []int
	pRotLen  []int // per-depth prefix length of pRotTis/pRotAxis
	pExt     []int // scratch: padded prefix extents

	// Last-input screen state (see BeginScreen), priced at pExt.
	scrSpec   *device.Spec
	scrWork   costmodel.WorkLB // nil: no work floor
	scrOne    float64          // the work floor's line at the prefix (workFloor)
	scrPer    float64
	scrSteps  int     // ∏ prefix max
	scrShift  float64 // the prefix's shift floor: telescoped bytes/bw plus startups
	scrRot    bool    // the prefix rotates
	scrAR     float64 // all-reduce floor and its sync phases
	scrPhases float64
	scrMem    int64 // the fixed inputs', the output's and the prefix's shift buffer bytes
	scrDims   []int // the last input's dim extents
	scrMax    []int // scratch: per-axis steps, the prefix max raised by the combo

	// Work-floor lines (see workLine) of the Begin Fop, memoised by the
	// padded prefix extents for the predictor lineWork: Begin clears
	// them, and a full memo prices without storing.
	lineWork costmodel.WorkLB
	lineExt  [8][]int
	lineOne  [8]float64
	linePer  [8]float64
	lineN    int

	// Work-floor tables (see workTask), fixed per expression: per
	// tensor, the distinct axis each simple dim contributes and each
	// compound dim's candidate term axes; rotatable[a] says a temporal
	// factor can land on axis a at all (a simple stride-1 input dim).
	workAxes  [][]int
	workComp  [][][]int
	workPick  []int // scratch: the compound-dim axes the current tensor took
	rotatable []bool
	ones      []int
}

// NewPlanSketch sizes a sketch for one operator. cfg follows NewPlan's
// normalization of the shift buffer size.
func NewPlanSketch(e *expr.Expr, cfg Config) *PlanSketch {
	if cfg.ShiftBufBytes <= 0 {
		cfg.ShiftBufBytes = DefaultConfig().ShiftBufBytes
	}
	tensors := e.Tensors()
	na, nt := len(e.Axes), len(tensors)
	maxDims := 0
	for _, tr := range tensors {
		maxDims = max(maxDims, len(tr.Dims))
	}
	ps := &PlanSketch{
		e: e, tensors: tensors, shiftBuf: int64(cfg.ShiftBufBytes),
		roles:   newTaskRoles(e),
		SubLen:  make([]int, na),
		rpAxis:  make([]int, na),
		tile:    make([]int64, na),
		iters:   make([]int, na),
		dimPart: make([]int, maxDims),
		loop:    make([]int, 0, na),
		padCap:  make([]int, na),

		partBytes: make([]int64, nt),
		shareP:    make([]int, nt),
		missing:   make([][]int, nt),

		pRaw:     make([]int, na),
		pPadCap:  make([]int, na),
		pLCM:     make([][]int, nt+1),
		pMax:     make([][]int, nt+1),
		pFts:     make([][]int, nt),
		pRotTis:  make([]int, 0, 2*nt),
		pRotAxis: make([]int, 0, 2*nt),
		pRotLen:  make([]int, nt+1),
		pExt:     make([]int, na),
		scrDims:  make([]int, maxDims),
		scrMax:   make([]int, na),
	}
	lineBacking := make([]int, len(ps.lineExt)*na)
	for i := range ps.lineExt {
		ps.lineExt[i] = lineBacking[i*na : (i+1)*na]
	}
	backing := make([]int, nt*na)
	for ti := range ps.missing {
		ps.missing[ti] = backing[ti*na : ti*na : (ti+1)*na]
	}
	pBacking := make([]int, 2*(nt+1)*na)
	for d := 0; d <= nt; d++ {
		ps.pLCM[d] = pBacking[2*d*na : (2*d+1)*na]
		ps.pMax[d] = pBacking[(2*d+1)*na : (2*d+2)*na]
	}
	ps.setPadCaps()
	return ps
}

// setWorkTables fills the expression-fixed tables workBytes and
// windowCap read, on a sketch's first work floor: the sketch that only
// orders the shards never takes one.
func (ps *PlanSketch) setWorkTables() {
	na := len(ps.e.Axes)
	ps.rotatable = make([]bool, na)
	ps.ones = make([]int, na)
	for a := range ps.ones {
		ps.ones[a] = 1
	}
	ps.workAxes = make([][]int, len(ps.tensors))
	ps.workComp = make([][][]int, len(ps.tensors))
	for ti, tr := range ps.tensors {
		var axes []int
		for _, dim := range tr.Dims {
			if t := dim.Terms[0]; !dim.Compound() {
				// Fix accepts a factor on an input's simple stride-1 dim
				ps.rotatable[t.Axis] = ps.rotatable[t.Axis] || t.Stride == 1 && ti < len(ps.tensors)-1
				if !slices.Contains(axes, t.Axis) {
					axes = append(axes, t.Axis)
				}
			}
		}
		var comp [][]int
		for _, dim := range tr.Dims {
			if !dim.Compound() {
				continue
			}
			var cand []int
			for _, t := range dim.Terms {
				if !slices.Contains(axes, t.Axis) {
					cand = append(cand, t.Axis)
				}
			}
			comp = append(comp, cand)
		}
		ps.workAxes[ti], ps.workComp[ti] = axes, comp
		ps.workPick = slices.Grow(ps.workPick, len(comp))
	}
}

// maxPadCap is padCap's "no limit": every extent up to it converts to
// float64 exactly, and no padded extent comes near it.
const maxPadCap = 1 << 53

// padCap returns the largest padded extent p ≥ size that keeps
// !(size/p < min) — the float expression of the padding rule itself —,
// or size-1 when even p = size fails it (min > 1). The expression is
// monotone non-increasing in p (IEEE division is correctly rounded, and
// p converts exactly below maxPadCap), so the accepted extents are
// exactly [size, cap] and a binary search over the float test finds
// the cap: an integer compare against it decides as the float does.
func padCap(size int, min float64) int {
	ok := func(p int) bool { return !(float64(size)/float64(p) < min) }
	if ok(maxPadCap) {
		return maxPadCap // min ≤ 0 or NaN: nothing fails
	}
	lo, hi := size-1, maxPadCap // invariant: every p in [size, lo] passes, hi fails
	for hi-lo > 1 {
		if mid := lo + (hi-lo)/2; ok(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// setPadCaps fills padCap for the current PaddingMin.
func (ps *PlanSketch) setPadCaps() {
	for a, ax := range ps.e.Axes {
		ps.padCap[a] = padCap(ax.Size, ps.PaddingMin)
	}
	ps.padCapBits = math.Float64bits(ps.PaddingMin)
}

// Compute evaluates one candidate in one shot: Begin, Fix per tensor,
// Finish. It returns false exactly when NewPlan would return an error;
// on true, Cores, TotalSteps, MemPerCore and SubLen are valid until the
// next call. fop and fts are borrowed, not copied.
func (ps *PlanSketch) Compute(fop []int, fts [][]int) bool {
	if fts != nil && len(fts) != len(ps.tensors) {
		return false
	}
	if !ps.Begin(fop) {
		return false
	}
	for ti := range ps.tensors {
		if !ps.Fix(ftOf(fts, ti)) {
			return false
		}
	}
	return ps.Finish()
}

// Finish completes a fully fixed prefix (every tensor Fixed) into the
// leaf results. The Fop-only state (sharing degrees, raw extents) and
// the per-axis LCM/max and alignment checks are already held by Begin
// and Fix, so only the two passes that need every tensor's factors
// remain per leaf: padding the extents, and one pass over the tensors
// that sizes each partition — with NewPlan's last two validity checks,
// which depend on the final padded extents and so cannot be decided on
// a prefix — and fills the byte counts Estimate reads:
// the kernel task's per-step operand bytes and every axis' shift tile
// and copy count.
func (ps *PlanSketch) Finish() bool {
	e := ps.e
	nt := len(ps.tensors)
	if ps.pDepth != nt {
		return false
	}
	lcm, steps := ps.pLCM[nt], ps.pMax[nt]
	ps.TotalSteps = 1
	for a := range e.Axes {
		// an axis no factor touches (LCM 1, so one step) keeps its raw
		// extent: the divisions are paid only where an axis rotates
		sub, rp := ps.pRaw[a], ps.pRaw[a]
		if lcm[a] > 1 {
			sub = mathutil.RoundUp(sub, lcm[a])
			rp = sub / steps[a]
		}
		ps.SubLen[a], ps.rpAxis[a] = sub, rp
		ps.TotalSteps *= steps[a]
		ps.tile[a], ps.iters[a] = 0, 1
	}

	ps.MemPerCore, ps.inBytes = 0, 0
	for ti, tr := range ps.tensors {
		ft := ps.pFts[ti]
		elems, taskElems := int64(1), int64(1)
		for d, dim := range tr.Dims {
			part := e.DimSize(dim, ps.SubLen)
			taskElems *= int64(e.DimSize(dim, ps.rpAxis))
			if ft != nil && ft[d] > 1 {
				if part%ft[d] != 0 {
					return false
				}
				part /= ft[d]
				if ps.rpAxis[dim.Terms[0].Axis] > part {
					return false
				}
			}
			ps.dimPart[d] = part
			elems *= int64(part)
		}
		size := elemSize(tr.Elem)
		ps.partBytes[ti] = elems * size // = Plan.Tensors[ti].PartBytes()
		ps.MemPerCore += ps.partBytes[ti]
		if ti < nt-1 {
			ps.inBytes += taskElems * size // = tileBytesFor(e, input, rpAxis)
		} else {
			ps.outBytes = taskElems * size
		}
		for d, f := range ft {
			if f <= 1 {
				continue
			}
			// = rt.PartBytes() * RPAxis[a] / rt.PartShape[d]
			a := tr.Dims[d].Terms[0].Axis
			t := ps.partBytes[ti] * int64(ps.rpAxis[a]) / int64(ps.dimPart[d])
			ps.tile[a] += t
			if t > ps.shiftBuf { // a tile that fits the buffer ships in one copy
				ps.iters[a] = max(ps.iters[a], mathutil.CeilDiv(int(t), int(ps.shiftBuf)))
			}
		}
	}
	if ps.pRotLen[nt] > 0 {
		ps.MemPerCore += ps.shiftBuf
	}
	return true
}

// LowerBoundNs returns the Estimate of the candidate Finish (or
// Compute) last accepted, its TotalNs scaled down by 1e-9: the value the
// search's leaf bound computes from Estimate itself.
//
// Deprecated: no program code calls it. Kept because the benchmark
// harness times it (core.sketch_lb_us); it goes with the bench
// re-baseline (ROADMAP 8(d)).
func (ps *PlanSketch) LowerBoundNs(spec *device.Spec, pred costmodel.Predictor) float64 {
	return ps.Estimate(spec, pred).TotalNs * (1 - 1e-9)
}

// Estimate prices the candidate Finish (or Compute) last accepted, bit
// for bit as NewPlan(...).EstimateWith(spec, pred) would: the same
// kernel task and fused-epilogue term, the same loop order (shift tile
// descending, then axis ascending — an insertion sort over scratch, so
// nothing allocates), advances, multi-copy shift iterations and
// all-reduce term, summed in the same float order. It reads the prefix,
// so call it before the next Unfix.
func (ps *PlanSketch) Estimate(spec *device.Spec, pred costmodel.Predictor) Estimate {
	steps := ps.pMax[len(ps.tensors)]
	task := ps.leafTask(steps)
	perStep := pred.Predict(task)
	if task.Epilogue != 0 || task.MidFLOPs != 0 {
		perStep += kernel.FusedVectorCycles(spec, task) / spec.ClockGHz
	}
	est := Estimate{Steps: ps.TotalSteps, MemPerCore: ps.MemPerCore, ComputeNs: float64(ps.TotalSteps) * perStep}

	order := ps.loop[:0]
	for a, s := range steps {
		if s <= 1 {
			continue
		}
		i := len(order)
		order = append(order, a)
		for ; i > 0 && ps.tile[order[i-1]] < ps.tile[a]; i-- {
			order[i] = order[i-1]
		}
		order[i] = a
	}
	syncs := float64(ps.TotalSteps) // one per compute phase
	adv := 1
	for _, a := range order {
		adv *= steps[a] // = Plan.Advances(a): S_a times every enclosing loop's steps
		est.ShiftNs += float64(adv) * (float64(ps.tile[a])/spec.LinkBytesPerNs() +
			spec.ExchangeStartupNs*float64(ps.iters[a]))
		est.ShiftBytesPerCore += ps.tile[a] * int64(adv)
	}
	if len(order) > 0 {
		syncs += float64(ps.TotalSteps) // one per exchange phase
	}
	ar, phases := ps.allReduce(spec, ps.partBytes[len(ps.tensors)-1])
	est.AllReduceNs = ar
	syncs += phases
	est.SyncNs = syncs * spec.SyncNs
	est.TotalNs = est.ComputeNs + est.ShiftNs + est.AllReduceNs + est.SyncNs
	return est
}

// leafTask is the finished leaf's kernel task, = Plan.KernelTask(), with
// the operand bytes Finish already summed.
func (ps *PlanSketch) leafTask(steps []int) kernel.Task {
	return ps.roles.taskWithBytes(ps.rpAxis, steps, ps.inBytes, ps.outBytes)
}

// allReduceFloor is allReduce with the output's sub-tensor priced at
// the given extents. ReduceShare depends only on Fop, and the term is
// monotone in the extents, so it is an admissible floor at any prefix
// of the padding.
func (ps *PlanSketch) allReduceFloor(spec *device.Spec, ext []int) (ns, syncPhases float64) {
	if ps.shareP[len(ps.tensors)-1] <= 1 {
		return 0, 0
	}
	out := ps.tensors[len(ps.tensors)-1]
	subBytes := int64(1)
	for _, dim := range out.Dims {
		subBytes *= int64(ps.e.DimSize(dim, ext))
	}
	return ps.allReduce(spec, subBytes*elemSize(out.Elem))
}

// allReduce returns the all-reduce time term and its sync phase count
// for the output's sharing degree and a sub-tensor of subBytes. At a
// finished leaf the output's partition is its sub-tensor (the output
// never takes temporal factors), so partBytes prices it exactly. Both
// bounds and Estimate share this one implementation of EstimateWith's
// all-reduce math — they must stay term-for-term identical to it.
func (ps *PlanSketch) allReduce(spec *device.Spec, subBytes int64) (ns, syncPhases float64) {
	r := ps.shareP[len(ps.tensors)-1]
	if r <= 1 {
		return 0, 0
	}
	phases := 2 * (r - 1)
	bytes := 2 * subBytes * int64(r-1) / int64(r)
	return float64(bytes)/spec.LinkBytesPerNs() + float64(phases)*spec.ExchangeStartupNs,
		float64(phases)
}

// ftOf returns the temporal factors of tensor ti, or nil.
func ftOf(fts [][]int, ti int) []int {
	if fts == nil {
		return nil
	}
	return fts[ti]
}

// The incremental form prices a *partial* temporal-factor assignment:
// Begin fixes the Fop, Fix appends one tensor's temporal factors at a
// time, and the Partial* methods bound every completion of the current
// prefix — so the search can cut whole subtrees of the f_t recursion
// before enumerating the deeper tensors. Correctness contract (enforced
// by property tests):
//
//   - Fix returns false exactly when every completion of the prefix is
//     invalid for NewPlan on checks a prefix can decide (factor
//     eligibility, ∏ft | ShareP, rotation alignment between fixed
//     tensors — none depends on the unfixed tensors) or fails the
//     padding rule handed to the sketch (the per-axis LCM only grows
//     with deeper tensors, and the padded extent with it);
//   - PartialMemLB never exceeds Plan.MemPerCore() of any valid
//     completion (later tensors only grow the padded extents and add
//     footprint);
//   - PartialTimeLB never exceeds Plan.EstimateWith(...).TotalNs of any
//     valid completion. Its one compute floor is the predictor's
//     costmodel.WorkLB on the prefix's total work; without one (custom
//     cost functions are opaque) the compute term is bounded by zero,
//     so only the shift, all-reduce and sync floors contribute;
//   - once every input but the last is fixed, BeginScreen's bounds hold
//     for every valid completion as the Partial* bounds do, and
//     Screen(ft) never exceeds the MemPerCore or the
//     Plan.EstimateWith(...).TotalNs of the completion that gives the
//     last input ft, when that completion is valid.
//
// Once every tensor is fixed, Finish turns the prefix into the leaf
// results without re-deriving any of it. Compute is the same sequence
// run in one call, so it resets any prefix held on the same sketch.

// Begin starts a partial assignment for one operator partition factor.
// It returns false when the Fop itself is out of range (NewPlan would
// reject it regardless of temporal factors) or already pads an axis
// past PaddingMin.
func (ps *PlanSketch) Begin(fop []int) bool {
	e := ps.e
	if len(fop) != len(e.Axes) {
		return false
	}
	if math.Float64bits(ps.PaddingMin) != ps.padCapBits {
		ps.setPadCaps()
	}
	ps.lineN = 0
	ps.Cores = 1
	for a, f := range fop {
		if f < 1 || f > e.Axes[a].Size {
			return false
		}
		ps.Cores *= f
		ps.pRaw[a] = mathutil.CeilDiv(e.Axes[a].Size, f)
		ps.pPadCap[a] = ps.padCap[a] / f
		ps.pLCM[0][a] = 1
		ps.pMax[0][a] = 1
		if ps.pRaw[a] > ps.pPadCap[a] { // = !padOK(a, 1)
			return false
		}
	}
	ps.pDepth = 0
	ps.pRotTis = ps.pRotTis[:0]
	ps.pRotAxis = ps.pRotAxis[:0]
	ps.pRotLen[0] = 0
	// sharing degrees and missing axes depend on Fop alone
	for ti, tr := range ps.tensors {
		ps.missing[ti] = ps.missing[ti][:0]
		shareP := 1
		for a := range e.Axes {
			if fop[a] > 1 && !expr.ContainsAxis(tr, a) {
				ps.missing[ti] = append(ps.missing[ti], a)
				shareP *= fop[a]
			}
		}
		ps.shareP[ti] = shareP
	}
	return true
}

// ShareP returns tensor ti's sharing degree under the Begin Fop: ∏ Fop
// over the axes the tensor does not index.
func (ps *PlanSketch) ShareP(ti int) int { return ps.shareP[ti] }

// Fix appends tensor pDepth's temporal factors to the prefix. It
// returns false — leaving the prefix unchanged — exactly when every
// completion of the extended prefix is invalid or fails the padding
// rule; the caller then skips the subtree without Unfix.
func (ps *PlanSketch) Fix(ft []int) bool {
	ti := ps.pDepth
	tr := ps.tensors[ti]
	d0, d1 := ps.pLCM[ti], ps.pLCM[ti+1]
	m0, m1 := ps.pMax[ti], ps.pMax[ti+1]
	copy(d1, d0)
	copy(m1, m0)
	rot := ps.pRotLen[ti]
	ps.pRotTis = ps.pRotTis[:rot]
	ps.pRotAxis = ps.pRotAxis[:rot]

	if ft != nil {
		if len(ft) != len(tr.Dims) {
			return false
		}
		ftProd := 1
		for d, f := range ft {
			if f < 1 {
				return false
			}
			if f == 1 {
				continue
			}
			dim := tr.Dims[d]
			if dim.Compound() || dim.Terms[0].Stride != 1 {
				return false
			}
			if ti == len(ps.tensors)-1 {
				return false // output never takes temporal factors
			}
			ftProd *= f
			a := dim.Terms[0].Axis
			d1[a] = mathutil.LCM(d1[a], f)
			m1[a] = mathutil.Max(m1[a], f)
			if !ps.padOK(a, d1[a]) {
				return false
			}
			// alignment against every rotating (tensor, axis) pair fixed
			// so far, including this tensor's own earlier dims (Fig 7)
			for i := range ps.pRotTis {
				if ps.pRotAxis[i] == a && sharesAxis(ps.missing[ps.pRotTis[i]], ps.missing[ti]) {
					return false
				}
			}
			ps.pRotTis = append(ps.pRotTis, ti)
			ps.pRotAxis = append(ps.pRotAxis, a)
		}
		if ftProd > 1 && ps.shareP[ti]%ftProd != 0 {
			return false
		}
	}
	ps.pFts[ti] = ft
	ps.pDepth = ti + 1
	ps.pRotLen[ti+1] = len(ps.pRotTis)
	return true
}

// Unfix pops the most recently fixed tensor.
func (ps *PlanSketch) Unfix() {
	ps.pDepth--
	n := ps.pRotLen[ps.pDepth]
	ps.pRotTis = ps.pRotTis[:n]
	ps.pRotAxis = ps.pRotAxis[:n]
}

// partialExt fills pExt with the padded prefix extents: the raw
// sub-operator extents rounded up to the prefix LCM. Every completion's
// SubLen is at least this (later factors only grow the LCM).
func (ps *PlanSketch) partialExt() {
	lcm := ps.pLCM[ps.pDepth]
	for a := range ps.pExt {
		ps.pExt[a] = mathutil.RoundUp(ps.pRaw[a], lcm[a])
	}
}

// padOK reports whether axis a, padded to a multiple of lcm under the
// Begin Fop, keeps original/padded ≥ PaddingMin. padded·Fop ≤ padCap
// exactly when padded ≤ ⌊padCap/Fop⌋, and padCap is derived from the
// float expression of the search's leaf filter, so prefix and leaf
// decide identically.
func (ps *PlanSketch) padOK(a, lcm int) bool {
	return mathutil.RoundUp(ps.pRaw[a], lcm) <= ps.pPadCap[a]
}

// FactorsPadOK reports whether tensor ti's temporal factors alone keep
// every axis within the padding rule under the Begin Fop. Fix accepts
// no others at any depth (the LCM only grows), so the search drops the
// rest from its recursion once per Fop.
func (ps *PlanSketch) FactorsPadOK(ti int, ft []int) bool {
	for d, f := range ft {
		if f > 1 && !ps.padOK(ps.tensors[ti].Dims[d].Terms[0].Axis, f) {
			return false
		}
	}
	return true
}

// PartialMemLB returns an admissible lower bound on the per-core memory
// of every valid completion of the prefix: each fixed tensor's
// partition priced at the padded prefix extents, plus restMinBytes (the
// caller's minimum footprint of the remaining tensors), plus the shift
// buffer when the prefix already rotates.
func (ps *PlanSketch) PartialMemLB(restMinBytes int64) int64 {
	ps.partialExt()
	mem := restMinBytes
	for ti := 0; ti < ps.pDepth; ti++ {
		mem += ps.extBytes(ti, ps.pFts[ti])
	}
	if ps.pRotLen[ps.pDepth] > 0 {
		mem += ps.shiftBuf
	}
	return mem
}

// extBytes returns tensor ti's partition bytes at the padded prefix
// extents, each dim split by ft (nil: unsplit) and rounded up — the
// true partition length is an integer ≥ sub/f. Valid after partialExt.
func (ps *PlanSketch) extBytes(ti int, ft []int) int64 {
	tr := ps.tensors[ti]
	elems := int64(1)
	for d, dim := range tr.Dims {
		sub := ps.e.DimSize(dim, ps.pExt)
		if ft != nil {
			sub = (sub + ft[d] - 1) / ft[d]
		}
		elems *= int64(sub)
	}
	return elems * elemSize(tr.Elem)
}

// PartialTimeLB returns an admissible lower bound on TotalNs for every
// valid completion: the minimum shift traffic of the tensors fixed so
// far (steps × tile telescopes to extent × partition bytes, which only
// grow with padding), the exact all-reduce term (it depends on Fop and
// the padded extents alone), the minimum sync count — and work's
// compute floor (nil: none, as for an opaque custom cost function) at
// the prefix's aggregate task (see workTask): a completion's MACs, rows
// and bytes summed over its steps telescope to at least the prefix's
// total work, however the completion splits it — the argument the
// shift term already uses.
//
// Scaled down by 1e-9 to absorb summation-order rounding.
func (ps *PlanSketch) PartialTimeLB(spec *device.Spec, work costmodel.WorkLB) float64 {
	ps.partialExt()
	ps.prefixTerms(spec, work)
	return ps.screenNs(ps.scrSteps, ps.scrShift, ps.scrRot)
}

// prefixTerms prices PartialTimeLB's terms at pExt into the screen
// state: the prefix's step count and rotation, its shift floor and the
// all-reduce floor, with the work floor's line they are summed with.
func (ps *PlanSketch) prefixTerms(spec *device.Spec, work costmodel.WorkLB) {
	e := ps.e
	max := ps.pMax[ps.pDepth]
	ps.scrSpec, ps.scrWork = spec, work
	if work != nil {
		ps.scrOne, ps.scrPer = ps.workLine(work)
	}
	ps.scrSteps, ps.scrShift, ps.scrRot = 1, 0, false
	bw := spec.LinkBytesPerNs()
	for a := range e.Axes {
		ps.scrSteps *= max[a]
		if max[a] <= 1 {
			continue
		}
		ps.scrRot = true
		// Σ over fixed tensors rotating on a of SubLen_a × ∏_{d'≠d} part:
		// steps_a × tile_a with the ftmax cancelled, bounded from below
		// at the prefix extents.
		var bytes int64
		for ti := 0; ti < ps.pDepth; ti++ {
			ft := ps.pFts[ti]
			if ft == nil {
				continue
			}
			tr := ps.tensors[ti]
			for d, f := range ft {
				if f <= 1 || tr.Dims[d].Terms[0].Axis != a {
					continue
				}
				rest := int64(1)
				for d2, dim2 := range tr.Dims {
					if d2 == d {
						continue
					}
					sub := e.DimSize(dim2, ps.pExt)
					f2 := ft[d2]
					rest *= int64((sub + f2 - 1) / f2)
				}
				bytes += int64(ps.pExt[a]) * rest * elemSize(tr.Elem)
			}
		}
		ps.scrShift += float64(bytes)/bw + float64(max[a])*spec.ExchangeStartupNs
	}
	ps.scrAR, ps.scrPhases = ps.allReduceFloor(spec, ps.pExt)
}

// screenNs sums the prefix terms into a time bound for a completion of
// exactly steps steps with the given shift floor: the work floor (0
// without one), the shift floor, the all-reduce floor and one sync per
// compute phase — plus one per exchange phase when anything rotates.
// Scaled down by 1e-9 to absorb summation-order rounding.
func (ps *PlanSketch) screenNs(steps int, shiftNs float64, rot bool) float64 {
	var total float64
	if ps.scrWork != nil {
		total = ps.workFloor(steps)
	}
	syncs := float64(steps)
	if rot {
		syncs += float64(steps)
	}
	total += shiftNs + ps.scrAR + (syncs+ps.scrPhases)*ps.scrSpec.SyncNs
	return total * (1 - 1e-9)
}

// workFloor is the work floor at the prefix's aggregate task for steps
// steps: one multiply-add on the line prefixTerms took.
func (ps *PlanSketch) workFloor(steps int) float64 {
	return ps.scrOne + ps.scrPer*float64(steps-1)
}

// workLine returns work's floor line at the prefix's aggregate task,
// memoised by the padded prefix extents pExt: the task depends on them
// and on the Begin Fop alone, and a Fop's many prefixes pad to a few.
func (ps *PlanSketch) workLine(work costmodel.WorkLB) (oneStep, perStep float64) {
	if work != ps.lineWork {
		ps.lineWork, ps.lineN = work, 0
	}
	for i := 0; i < ps.lineN; i++ {
		if slices.Equal(ps.lineExt[i], ps.pExt) {
			return ps.lineOne[i], ps.linePer[i]
		}
	}
	oneStep, perStep = work.WorkFloorLine(ps.workTask())
	if n := ps.lineN; n < len(ps.lineExt) {
		copy(ps.lineExt[n], ps.pExt)
		ps.lineOne[n], ps.linePer[n] = oneStep, perStep
		ps.lineN++
	}
	return oneStep, perStep
}

// BeginScreen starts the last-input screen once every input but the
// last is fixed: it prices, once, at the padded prefix extents what
// every leaf below shares — the fixed inputs' and the output's
// partitions, PartialTimeLB's terms — and returns the subtree's bounds,
// PartialMemLB's (lastMinBytes: the last input's minimum footprint)
// plus the output's partition and PartialTimeLB's. The screen stays
// valid until the prefix changes below the last input.
func (ps *PlanSketch) BeginScreen(spec *device.Spec, work costmodel.WorkLB, lastMinBytes int64) (memLB int64, timeLB float64) {
	nt := len(ps.tensors)
	memLB = ps.PartialMemLB(lastMinBytes) + ps.extBytes(nt-1, nil)
	ps.scrMem = memLB - lastMinBytes // with the shift buffer if the prefix rotates
	for d, dim := range ps.tensors[nt-2].Dims {
		ps.scrDims[d] = ps.e.DimSize(dim, ps.pExt)
	}
	ps.prefixTerms(spec, work)
	return memLB, ps.screenNs(ps.scrSteps, ps.scrShift, ps.scrRot)
}

// Screen bounds, without Fix or Finish, the memory and TotalNs of the
// leaf that gives the last input the temporal factors ft: the shared
// bytes plus ft's partition at the prefix extents (and the shift
// buffer if anything rotates), and screenNs at the leaf's exact step
// count ∏_a max(prefix max_a, ft's factor on a) with ft's telescoped
// shift bytes and extra startups added.
func (ps *PlanSketch) Screen(ft []int) (mem int64, ns float64) {
	tr := ps.tensors[len(ps.tensors)-2]
	elems := int64(1)
	for d, n := range ps.scrDims[:len(tr.Dims)] {
		if ft != nil && ft[d] > 1 {
			n = (n + ft[d] - 1) / ft[d]
		}
		ps.dimPart[d] = n
		elems *= int64(n)
	}
	size := elemSize(tr.Elem)
	mem = ps.scrMem + elems*size
	steps, shift, rot := ps.scrSteps, ps.scrShift, ps.scrRot
	bw := ps.scrSpec.LinkBytesPerNs()
	copy(ps.scrMax, ps.pMax[len(ps.tensors)-2])
	for d, f := range ft {
		if f <= 1 {
			continue
		}
		rot = true
		// S_a·tile telescopes to SubLen_a × the other dims' partitions
		shift += float64(int64(ps.scrDims[d])*(elems/int64(ps.dimPart[d]))*size) / bw
		a := tr.Dims[d].Terms[0].Axis
		if s := ps.scrMax[a]; f > s {
			steps = steps / s * f
			if s == 1 {
				s = 0 // the axis starts rotating: every step pays a startup
			}
			shift += float64(f-s) * ps.scrSpec.ExchangeStartupNs
			ps.scrMax[a] = f
		}
	}
	if rot && !ps.scrRot {
		mem += ps.shiftBuf
	}
	return mem, ps.screenNs(steps, shift, rot)
}

// workTask returns the prefix's aggregate task for costmodel.WorkLB:
// the whole per-core sub-operator at the padded prefix extents pExt,
// priced as one step. Each feature is at most its sum over the steps of
// any completion. With S = ∏ steps, rp = SubLen/steps and
// SubLen ≥ pExt, S·RoundUp(M_rp, 8) ≥ RoundUp(∏SubLen_M, 8) ≥
// RoundUp(∏pExt_M, 8) over the M axes (16 for K), and S·N_rp ≥ ∏pExt_N;
// chained MACs and rows are sums of such products, and Elems ×
// FLOPsPerElem and a gather's ⌈m/gatherSteps⌉ telescope the same way.
// Operand bytes and a convolution's window take their own floors
// (workBytes, windowCap). Valid after partialExt.
func (ps *PlanSketch) workTask() kernel.Task {
	if ps.ones == nil {
		ps.setWorkTables()
	}
	var in int64
	last := len(ps.tensors) - 1
	for ti := 0; ti < last; ti++ {
		in += ps.workBytes(ti)
	}
	t := ps.roles.taskWithBytes(ps.pExt, ps.ones, in, ps.workBytes(last))
	if ps.e.Kind == expr.KindConv {
		t.KH, t.KW = ps.windowCap(), 1
	}
	return t
}

// workBytes floors the bytes tensor ti streams, summed over the steps
// of any completion: a dim spans at least each of its term axes' extent
// (strides are ≥ 1), so one term axis a_d per dim, distinct within the
// tensor, gives S·∏_d DimSize(d, rp) ≥ ∏_d S_{a_d}·rp_{a_d} =
// ∏_d SubLen_{a_d} ≥ ∏_d pExt_{a_d}. A compound dim takes its largest
// free term. The tile at pExt is no such floor: a strided compound
// dim's span does not telescope (a 1×1 stride-2 window sums
// S·(2·rp − 1) rows over its steps, short of 2·SubLen − 1).
func (ps *PlanSketch) workBytes(ti int) int64 {
	elems := int64(1)
	for _, a := range ps.workAxes[ti] {
		elems *= int64(ps.pExt[a])
	}
	pick := ps.workPick[:0]
	for _, cand := range ps.workComp[ti] {
		best := -1
		for _, a := range cand {
			if !slices.Contains(pick, a) && (best < 0 || ps.pExt[a] > ps.pExt[best]) {
				best = a
			}
		}
		if best >= 0 {
			pick = append(pick, best)
			elems *= int64(ps.pExt[best])
		}
	}
	return elems * elemSize(ps.tensors[ti].Elem)
}

// maxWindowCap bounds windowCap's product; past it the cap reads as
// unbounded.
const maxWindowCap = 1 << 30

// windowCap returns an upper bound on the convolution window KH·KW of
// every completion's step, or 0 (no bound: costmodel drops the
// InBytes/window feature, which keeps the floor admissible). A step's
// window is a product of window-axis step extents, and an axis' step
// extent is at most its padded sub-extent: the raw one where no factor
// can land on the axis, else at most pPadCap — Fix rejects any padding
// past it. The prefix extents are no such bound: two factors on one
// axis pad it to their LCM but step it by their max.
func (ps *PlanSketch) windowCap() int {
	w := 1
	for a, role := range ps.roles.role {
		if role != roleWindow {
			continue
		}
		c := ps.pRaw[a]
		if ps.rotatable[a] {
			c = ps.pPadCap[a]
		}
		if c > maxWindowCap/w {
			return 0
		}
		w *= c
	}
	return w
}

// TensorMinBytes returns an admissible lower bound on tensor ti's
// per-core partition bytes under the Begin Fop, for any temporal-factor
// assignment splitting it at most maxSplit ways: the unpadded sub-tensor
// volume divided by the split, rounded up.
func (ps *PlanSketch) TensorMinBytes(ti, maxSplit int) int64 {
	tr := ps.tensors[ti]
	elems := int64(1)
	for _, dim := range tr.Dims {
		elems *= int64(ps.e.DimSize(dim, ps.pRaw))
	}
	if maxSplit > 1 {
		elems = (elems + int64(maxSplit) - 1) / int64(maxSplit)
	}
	if elems < 1 {
		elems = 1
	}
	return elems * elemSize(tr.Elem)
}
