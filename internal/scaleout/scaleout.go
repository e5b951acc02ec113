// Package scaleout partitions an operator graph across the chips of a
// device generation: the multi-chip layer composed over the single-chip
// compiler. The per-chip subproblem — compile a stage submodel onto one
// chip — is exactly the existing pipeline (intra-op Pareto search +
// inter-op reconciliation), reached through an opaque Compile callback;
// this package only runs the small outer search over where to cut.
//
// Two partition strategies compose:
//
//   - Pipeline parallelism: the graph is cut into contiguous stages,
//     one group of chips per stage, activations crossing a cut priced
//     as inter-chip transfers over the generation's Interconnect
//     descriptor (launch latency + bytes over link bandwidth).
//   - Tensor parallelism: a stage assigned g > 1 chips is row-split —
//     every op's leading spatial axis divided by g, weights replicated
//     — and closes with an all-gather of its boundary outputs, priced
//     by the topology's hop count.
//
// NewSpace names every stage a candidate partition can use, builds each
// stage model once and shares one split expression per (op, split), so
// a caller can list, price and prepare exactly the stage compiles a
// search runs before it runs any. Space.Search compiles each stage once
// and finds the cheapest candidate exactly, by a dynamic program over
// (ops placed, chips used). When the callback returns simulated stage
// times, as t10.CompileSharded's does, selection is by simulation:
// there is one pricing, and it is the one that picks.
package scaleout

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/device"
	"repro/internal/expr"
	"repro/internal/graph"
)

// Compile is the per-chip leaf of the outer search: compile stage
// Space.Stages[stage] for a single chip and return an opaque handle
// (the caller's executable) plus the stage's end-to-end time, which
// Search prices the partition from (t10 returns the stage's simulated
// time). Search calls it at most once per stage. An error means the
// stage does not fit one chip — a legal outcome that prunes the
// candidate, not a search failure.
type Compile func(stage int) (handle any, pricedNs float64, err error)

// Config bounds the partition search.
type Config struct {
	// NChips is how many chips of the generation are available. A
	// partition may use fewer when the transfer cost outweighs the
	// parallelism.
	NChips int

	// Microbatches is the pipeline depth M: the batch is split into M
	// equal microbatches so stages overlap, at the price of the bubble
	// term. <= 1 means no pipelining (pure latency: one batch walks the
	// stages in sequence).
	Microbatches int
}

// Stage is one pipeline stage of a partition: ops [Start,End) of the
// source model, row-split Split ways, compiled for a single chip.
type Stage struct {
	Start, End int
	Split      int

	// Model is the per-chip stage submodel (split applied, cross-cut
	// sources remapped to External).
	Model *graph.Model

	// Handle is whatever the Compile callback returned for Model.
	Handle any

	// ComputeNs is the priced per-chip time of one full inference
	// through this stage (the stage schedule's end-to-end time).
	ComputeNs float64

	// GatherBytes is the boundary-output volume a Split-way stage must
	// all-gather per inference (0 when Split == 1); GatherNs prices it.
	GatherBytes int64
	GatherNs    float64
}

// Boundary is one pipeline cut crossing: an activation tensor produced
// in stage From and consumed in stage To.
type Boundary struct {
	From, To  int // stage indices
	Op, Input int // consumer op (source-model index) and input slot
	Bytes     int64
	Crossings int     // transfers per inference (the consumer op's Repeat)
	Ns        float64 // priced per-inference transfer time
}

// Partition is one priced candidate: a full assignment of the model to
// chips.
type Partition struct {
	Stages     []Stage
	Boundaries []Boundary

	// Chips is Σ stage splits — how many chips the partition uses.
	Chips        int
	Microbatches int

	// ComputeNs is Σ per-stage priced time; TransferNs is Σ boundary +
	// gather time; BubbleNs is the imbalance share of the steady-state
	// term; TotalNs is the priced end-to-end pipeline time.
	ComputeNs  float64
	TransferNs float64
	BubbleNs   float64
	TotalNs    float64
}

// Result is the outcome of one partition search.
type Result struct {
	// Best is the cheapest feasible partition: lowest TotalNs, then
	// fewer chips, then fewer stages. The search breaks further ties by
	// the smaller steady-state term (M−1)·bottleneck, then by the last
	// stage that starts earliest and splits fewest ways, the stages
	// before it chosen by the same rules.
	Best *Partition

	// Enumerated counts the candidate partitions; Infeasible counts
	// those with a stage that did not fit one chip (or an op that could
	// not be row-split). Both are counted, not walked, and saturate at
	// math.MaxInt: ResNet's 31 ops over 64 chips have ~1.4e25
	// candidates.
	Enumerated int
	Infeasible int
}

// InfeasibleError reports that no candidate partition fit the chips:
// every candidate had a stage that failed to compile or an op refuses
// to split. Tried is the candidate count (saturated like
// Result.Enumerated); Err holds the last stage compile failure.
type InfeasibleError struct {
	NChips int
	Tried  int
	Err    error
}

func (e *InfeasibleError) Error() string {
	return fmt.Sprintf("scaleout: no feasible partition across %d chips (%d candidates tried): %v",
		e.NChips, e.Tried, e.Err)
}

func (e *InfeasibleError) Unwrap() error { return e.Err }

// SplitExpr returns a copy of e with its leading spatial axis divided
// by ways — the tensor-parallel row split; ways <= 1 returns e itself.
// ok is false when the split is invalid: no spatial axis, size not
// divisible, the axis appears in a compound dimension (a conv halo
// would need exchange this model does not price), a strided dimension,
// or a fused expression (splits happen before fusion; model ops are
// always unfused).
func SplitExpr(e *expr.Expr, ways int) (*expr.Expr, bool) {
	if ways <= 1 {
		return e, true
	}
	if e.FusedOps != 0 || len(e.ChainAxes) > 0 {
		return nil, false
	}
	lead := -1
	for i := range e.Axes {
		if e.Axes[i].Kind == expr.Spatial {
			lead = i
			break
		}
	}
	if lead < 0 || e.Axes[lead].Size%ways != 0 {
		return nil, false
	}
	refs := append([]expr.TensorRef{e.Output}, e.Inputs...)
	for _, t := range refs {
		for _, d := range t.Dims {
			if !d.HasAxis(lead) {
				continue
			}
			if d.Compound() || d.Terms[0].Stride != 1 {
				return nil, false
			}
		}
	}
	cp := *e
	cp.Axes = append([]expr.Axis(nil), e.Axes...)
	cp.Axes[lead].Size /= ways
	return &cp, true
}

// stageModel builds the per-chip submodel for ops [start,end) of m,
// row-split `split` ways: cross-cut activation sources become External
// (they arrive over the interconnect), weights keep their slots, and
// op i's expression is splits[i], its split at this width. The whole
// model unsplit is m itself, not a copy, so the single-chip candidate
// compiles exactly what a plain compile would.
func stageModel(m *graph.Model, start, end, split int, splits []*expr.Expr) *graph.Model {
	if start == 0 && end == len(m.Ops) && split == 1 {
		return m
	}
	ops := make([]graph.Op, end-start)
	for i := start; i < end; i++ {
		o := &m.Ops[i]
		src := make([]int, len(o.Sources))
		for j, s := range o.Sources {
			if s >= start && s < end {
				src[j] = s - start
			} else {
				src[j] = graph.External
			}
		}
		ops[i-start] = graph.Op{
			Name: o.Name, Expr: splits[i],
			WeightInputs: o.WeightInputs, // read-only: the split keeps the input slots
			Sources:      src,
			Repeat:       o.Repeat,
		}
	}
	name := fmt.Sprintf("%s[%d:%d)", m.Name, start, end)
	if split > 1 {
		name += fmt.Sprintf("/%d", split)
	}
	return &graph.Model{Name: name, BatchSize: m.BatchSize, Ops: ops}
}

func repeatOf(o *graph.Op) int {
	if o.Repeat <= 0 {
		return 1
	}
	return o.Repeat
}

// Price computes the pipeline totals of the partition from the given
// per-stage per-inference compute times (index-aligned with Stages).
// Search prices every candidate with it, and a caller can re-derive a
// partition's totals from the same stage times (t10's
// ShardedExecutable.Simulate does). It does not mutate the partition.
//
// The model: the batch splits into M equal microbatches, so one
// microbatch spends u_s = stageNs[s]/M + gather_s in stage s and x_b on
// boundary b. The first microbatch fills the pipeline (Σ u + Σ x); each
// of the remaining M−1 drains one bottleneck interval behind it
// (steady-state serialization on the slowest stage or link). The
// bubble is the imbalance share of that steady-state term: with
// perfectly balanced stages it is zero, and every nanosecond a stage
// sits above the mean is charged M−1 times.
func (p *Partition) Price(stageNs []float64) (total, transfer, bubble float64) {
	m := p.Microbatches
	if m < 1 {
		m = 1
	}
	fm := float64(m)
	var fill, bottleneck, sum float64
	n := 0
	for s := range p.Stages {
		u := stageNs[s]/fm + p.Stages[s].GatherNs/fm
		fill += u
		sum += u
		n++
		if u > bottleneck {
			bottleneck = u
		}
		transfer += p.Stages[s].GatherNs
	}
	for _, b := range p.Boundaries {
		x := b.Ns / fm
		fill += x
		sum += x
		n++
		if x > bottleneck {
			bottleneck = x
		}
		transfer += b.Ns
	}
	total = fill + float64(m-1)*bottleneck
	if m > 1 && n > 0 {
		bubble = float64(m-1) * (bottleneck - sum/float64(n))
		if bubble < 0 {
			bubble = 0
		}
	}
	return total, transfer, bubble
}

// Space is the candidate partitions of one model across NChips chips
// of a generation, and the distinct stages they draw from.
type Space struct {
	// Stages lists, once each, every stage some candidate uses whose
	// ops all take its split, by end op, then start op, then split;
	// Handle, ComputeNs and the gather fields are left zero. Search
	// counts a candidate with a stage an op refuses as infeasible.
	Stages []Stage

	m             *graph.Model
	nChips, micro int

	// refuses[g-1][i] is the first op at or after i that refuses a g-way
	// row split (the op count when none does).
	refuses [][]int
}

// widths is how many ways stage [start, end) may split: every chip but
// one for each stage before and after it, if any.
func (sp *Space) widths(start, end int) int {
	others := 0
	if start > 0 {
		others++
	}
	if end < len(sp.m.Ops) {
		others++
	}
	return sp.nChips - others
}

// NewSpace names the stages of m's candidate partitions across
// cfg.NChips chips: every (start, end, split) within widths whose ops
// all take the split. Each stage model is built once, and all stages
// share one split expression per (op, split) — the whole model unsplit
// is m itself.
func NewSpace(m *graph.Model, cfg Config) (*Space, error) {
	nOps := len(m.Ops)
	if nOps == 0 {
		return nil, fmt.Errorf("scaleout: empty model")
	}
	if cfg.NChips < 1 {
		return nil, fmt.Errorf("scaleout: need at least one chip, got %d", cfg.NChips)
	}
	// the row split of every op at every width, built once, and the
	// first op at or after each that refuses it
	sp := &Space{m: m, nChips: cfg.NChips, micro: max(cfg.Microbatches, 1), refuses: make([][]int, cfg.NChips)}
	splits := make([][]*expr.Expr, cfg.NChips)
	for g := range splits {
		splits[g], sp.refuses[g] = make([]*expr.Expr, nOps), make([]int, nOps+1)
		sp.refuses[g][nOps] = nOps
		for i := nOps - 1; i >= 0; i-- {
			e, ok := SplitExpr(m.Ops[i].Expr, g+1)
			splits[g][i], sp.refuses[g][i] = e, sp.refuses[g][i+1]
			if !ok {
				sp.refuses[g][i] = i
			}
		}
	}
	for end := 1; end <= nOps; end++ {
		for start := 0; start < end; start++ {
			for g := 1; g <= sp.widths(start, end); g++ {
				if sp.refuses[g-1][start] >= end {
					sp.Stages = append(sp.Stages, Stage{Start: start, End: end, Split: g,
						Model: stageModel(m, start, end, g, splits[g-1])})
				}
			}
		}
	}
	return sp, nil
}

// cell is one (ops placed, chips used) entry of the search's table:
// the best prefix partition reaching it, its fill, its steady-state term
// (M−1)·max interval, its stage count and its last stage.
type cell struct {
	fill, steady float64
	stages, last int
}

// before reports whether prefix a beats prefix b into the same cell:
// less fill, then a smaller steady term, then fewer stages. On a full
// tie the cell keeps the prefix it took first.
func (a *cell) before(b *cell) bool {
	switch {
	case a.fill != b.fill:
		return a.fill < b.fill
	case a.steady != b.steady:
		return a.steady < b.steady
	}
	return a.stages < b.stages
}

// Search compiles every stage once through the Compile callback and
// returns the cheapest candidate. Partition.Price sums a fill term over
// the stages and their boundaries and adds (M−1) times the largest
// interval; every term depends only on the stage it belongs to (the
// boundaries into a stage on where it starts), so a dynamic program
// over (ops placed, chips used) finds the least fill, and reruns on
// the stages whose steady term is at most each threshold, ascending,
// until the least fill plus the threshold passes the best total. The
// winner is re-priced with Partition.Price. ctx is polled before each
// stage compile and between rows of the table: once it is done, Search
// returns ctx.Err().
func (sp *Space) Search(ctx context.Context, ic device.Interconnect, compile Compile) (*Result, error) {
	nOps, w, fm := len(sp.m.Ops), sp.nChips+1, float64(sp.micro)
	stages := append([]Stage(nil), sp.Stages...) // filled in as they compile
	fill, steady := make([]float64, len(stages)), make([]float64, len(stages))
	var live []int // the stages that compiled
	var lastErr error
	var in []Boundary
	// candidate prefixes reaching each cell, and those with an infeasible stage
	all, bad := make([]int, (nOps+1)*w), make([]int, (nOps+1)*w)
	all[0] = 1
	i := 0 // the next stage of sp.Stages: every triple an op takes the split of
	for end := 1; end <= nOps; end++ {
		for start := 0; start < end; start++ {
			for g := 1; g <= sp.widths(start, end); g++ {
				failed := sp.refuses[g-1][start] < end
				if !failed {
					if err := ctx.Err(); err != nil {
						return nil, err
					}
					if g == 1 { // every op takes g = 1: the first stage of [start, end)
						in = sp.boundaries([]int{0, start, end}, ic) // those into it
					}
					st := &stages[i]
					if err := sp.compileStage(st, i, ic, compile); err != nil {
						lastErr, failed = err, true
					} else {
						live = append(live, i)
						fill[i] = st.ComputeNs/fm + st.GatherNs/fm
						peak := fill[i]
						for _, b := range in {
							fill[i] += b.Ns / fm
							peak = max(peak, b.Ns/fm)
						}
						steady[i] = float64(sp.micro-1) * peak
					}
					i++
				}
				for c := 0; c+g < w; c++ {
					from, to := start*w+c, end*w+c+g
					inf := bad[from]
					if failed {
						inf = all[from]
					}
					all[to], bad[to] = satAdd(all[to], all[from]), satAdd(bad[to], inf)
				}
			}
		}
	}
	res := &Result{}
	for c := 1; c < w; c++ {
		res.Enumerated = satAdd(res.Enumerated, all[nOps*w+c])
		res.Infeasible = satAdd(res.Infeasible, bad[nOps*w+c])
	}

	cells := make([]cell, (nOps+1)*w)
	probe := &Partition{Stages: make([]Stage, nOps)} // a candidate's total, chips and stage count, for cheaper
	// pass fills the table from the stages whose steady term is at most
	// limit and offers each chip count's full partition to res.Best
	pass := func(limit float64) error {
		for i := range cells {
			cells[i] = cell{fill: math.Inf(1)}
		}
		cells[0].fill = 0
		for k, i := range live {
			st := &stages[i]
			if k > 0 && st.End != stages[live[k-1]].End {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			for c := 0; c+st.Split < w && steady[i] <= limit; c++ {
				from := &cells[st.Start*w+c]
				next := cell{fill: from.fill + fill[i], steady: max(from.steady, steady[i]), stages: from.stages + 1, last: i}
				if to := &cells[st.End*w+c+st.Split]; !math.IsInf(from.fill, 1) && next.before(to) {
					*to = next
				}
			}
		}
		for c := 1; c < w; c++ {
			e := &cells[nOps*w+c]
			probe.TotalNs, probe.Chips, probe.Stages = e.fill+e.steady, c, probe.Stages[:e.stages]
			if math.IsInf(e.fill, 1) || res.Best != nil && !cheaper(probe, res.Best) {
				continue
			}
			p := &Partition{Stages: make([]Stage, e.stages), Chips: c, Microbatches: sp.micro, TotalNs: probe.TotalNs}
			for s, at := e.stages-1, nOps*w+c; s >= 0; s-- {
				st := &stages[cells[at].last]
				p.Stages[s], at = *st, st.Start*w+at%w-st.Split
			}
			res.Best = p
		}
		return nil
	}
	if err := pass(math.Inf(1)); err != nil {
		return nil, err
	}
	if res.Best == nil {
		return nil, &InfeasibleError{NChips: sp.nChips, Tried: res.Enumerated, Err: lastErr}
	}
	if sp.micro > 1 {
		// find the candidates again, smallest steady term first, so that
		// of two equal totals the one with the smaller steady term wins
		minFill := math.Inf(1)
		for c := 1; c < w; c++ {
			minFill = min(minFill, cells[nOps*w+c].fill)
		}
		limits := make([]float64, 0, len(live))
		for _, i := range live {
			limits = append(limits, steady[i])
		}
		slices.Sort(limits)
		res.Best = nil
		for _, limit := range slices.Compact(limits) {
			if res.Best != nil && minFill+limit > res.Best.TotalNs {
				break
			}
			if err := pass(limit); err != nil {
				return nil, err
			}
		}
	}

	p := res.Best
	bounds, stageNs := []int{0}, make([]float64, len(p.Stages))
	for s, st := range p.Stages {
		bounds, stageNs[s] = append(bounds, st.End), st.ComputeNs
		p.ComputeNs += st.ComputeNs
	}
	p.Boundaries = sp.boundaries(bounds, ic)
	p.TotalNs, p.TransferNs, p.BubbleNs = p.Price(stageNs)
	return res, nil
}

// compileStage compiles stage i through the callback and prices the
// all-gather closing a tensor-parallel stage: each chip holds 1/g of
// every boundary output and needs the rest.
func (sp *Space) compileStage(st *Stage, i int, ic device.Interconnect, compile Compile) error {
	m := sp.m
	var err error
	if st.Handle, st.ComputeNs, err = compile(i); err != nil || st.Split == 1 {
		return err
	}
	hops := float64(ic.GatherHops(st.Split))
	for op := st.Start; op < st.End; op++ {
		if !leavesStage(m, op, st.End) {
			continue
		}
		o := &m.Ops[op]
		bytes := o.Expr.TensorBytes(o.Expr.Output)
		part := bytes * int64(st.Split-1) / int64(st.Split)
		st.GatherBytes += part
		st.GatherNs += hops * ic.TransferNs(part) * float64(repeatOf(o))
	}
	return nil
}

// boundaries lists the activations crossing the cuts of a partition
// with stage bounds (0, cuts…, ops), each priced as one hop: pipeline
// neighbours are adjacent on every topology.
func (sp *Space) boundaries(bounds []int, ic device.Interconnect) []Boundary {
	var out []Boundary
	for s := 1; s < len(bounds)-1; s++ {
		for i := bounds[s]; i < bounds[s+1]; i++ {
			o := &sp.m.Ops[i]
			for j, src := range o.Sources {
				if src == graph.External || o.IsWeight(j) || src >= bounds[s] {
					continue
				}
				bytes := o.Expr.TensorBytes(o.Expr.Inputs[j])
				b := Boundary{
					From: sort.SearchInts(bounds, src+1) - 1, To: s,
					Op: i, Input: j, Bytes: bytes,
					Crossings: repeatOf(o),
				}
				b.Ns = float64(b.Crossings) * ic.TransferNs(bytes)
				out = append(out, b)
			}
		}
	}
	return out
}

// satAdd is a + b for non-negative counts, saturating at math.MaxInt.
func satAdd(a, b int) int {
	if a > math.MaxInt-b {
		return math.MaxInt
	}
	return a + b
}

// cheaper reports whether p beats best: a lower priced total, then
// fewer chips, then fewer stages. On a full tie the incumbent stays.
func cheaper(p, best *Partition) bool {
	if p.TotalNs != best.TotalNs {
		return p.TotalNs < best.TotalNs
	}
	if p.Chips != best.Chips {
		return p.Chips < best.Chips
	}
	return len(p.Stages) < len(best.Stages)
}

// leavesStage reports whether op i's output is consumed outside
// [.., end) — or is the model output (the last op).
func leavesStage(m *graph.Model, i, end int) bool {
	if i == len(m.Ops)-1 {
		return true
	}
	for k := end; k < len(m.Ops); k++ {
		o := &m.Ops[k]
		for j, src := range o.Sources {
			if src == i && !o.IsWeight(j) {
				return true
			}
		}
	}
	return false
}
