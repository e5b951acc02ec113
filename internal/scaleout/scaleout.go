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
// The candidates are walked twice. NewSpace walks them once to name the
// distinct stages (start, end, split) they draw from, building each
// stage model once — every stage shares one split expression per
// (op, split) — so a caller can list, price and prepare exactly the
// stage compiles a search may run before it runs any. Space.Search then
// walks them again and prices each candidate by stage index, from the
// stage times the Compile callback returns plus the transfer model,
// with a pipeline bubble term charging stage imbalance when the batch
// is split into microbatches. The cheapest candidate wins. When the
// callback returns simulated stage times, as t10.CompileSharded's does,
// selection is by simulation: there is one pricing, and it is the one
// that picks.
package scaleout

import (
	"context"
	"fmt"
	"math/big"
	"slices"
	"sort"

	"repro/internal/device"
	"repro/internal/expr"
	"repro/internal/graph"
)

// Compile is the per-chip leaf of the outer search: compile stage
// Space.Stages[stage] (its Model, never nil here) for a single chip and
// return an opaque handle (the caller's executable) plus the stage's
// end-to-end time, which Search prices the partition from (t10 returns
// the stage's simulated time). Search calls it at most once per stage.
// An error means the stage does not fit one chip — a legal outcome that
// prunes the candidate, not a search failure.
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

	// MaxSplit caps the tensor-parallel ways per stage (0 = NChips).
	MaxSplit int
}

// maxEnum bounds how many cut vectors are enumerated per stage count
// before falling back to FLOP-balanced cut windows.
const maxEnum = 4096

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
	// fewer chips, then fewer stages, then the first enumerated.
	Best *Partition

	// Enumerated counts partitions priced; Infeasible counts those
	// rejected because a stage did not fit one chip (or an op could not
	// be row-split); CappedCuts reports that at least one stage count
	// fell back to FLOP-balanced cut windows instead of full
	// enumeration.
	Enumerated int
	Infeasible int
	CappedCuts bool
}

// InfeasibleError reports that no candidate partition fit the chips:
// every enumerated candidate had a stage that failed to compile. Err
// holds the last per-stage failure as a sample cause.
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
// op i's expression is splits[i], its split at this width (nil when it
// refuses, which makes the stage nil). The whole model unsplit is m
// itself, not a copy, so the single-chip candidate compiles exactly
// what a plain compile would.
func stageModel(m *graph.Model, start, end, split int, splits []*expr.Expr) *graph.Model {
	if start == 0 && end == len(m.Ops) && split == 1 {
		return m
	}
	if slices.Contains(splits[start:end], nil) {
		return nil
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
	// Stages lists each distinct stage of the candidates once. Model is
	// nil when an op refuses the row split (the stage is infeasible);
	// Handle, ComputeNs and the gather fields are left zero.
	Stages []Stage

	m                       *graph.Model
	nChips, maxSplit, micro int
	cuts                    [][][]int // cut vectors per stage count S, at S-1
	capped                  bool
	index                   []int // stage (start, end, split) at its slot, -1 unnamed
}

// slot is stage (start, end, split)'s entry in sp.index: a dense table,
// since both walks look a stage up per candidate stage.
func (sp *Space) slot(start, end, split int) int {
	return (start*(len(sp.m.Ops)+1)+end)*sp.maxSplit + split - 1
}

// NewSpace walks the candidate partitions of m across cfg.NChips chips
// once and names the distinct stages they draw from, in the order they
// first appear. Each stage model is built once, and all stages share
// one split expression per (op, split) — the whole model unsplit is m
// itself.
func NewSpace(m *graph.Model, cfg Config) (*Space, error) {
	nOps := len(m.Ops)
	if nOps == 0 {
		return nil, fmt.Errorf("scaleout: empty model")
	}
	if cfg.NChips < 1 {
		return nil, fmt.Errorf("scaleout: need at least one chip, got %d", cfg.NChips)
	}
	sp := &Space{m: m, nChips: cfg.NChips, maxSplit: cfg.MaxSplit, micro: max(cfg.Microbatches, 1)}
	if sp.maxSplit <= 0 || sp.maxSplit > cfg.NChips {
		sp.maxSplit = cfg.NChips
	}
	sp.index = make([]int, nOps*(nOps+1)*sp.maxSplit)
	for i := range sp.index {
		sp.index[i] = -1
	}
	// the row split of every op at every width, built once: nil refuses
	splits := make([][]*expr.Expr, sp.maxSplit)
	for g := range splits {
		splits[g] = make([]*expr.Expr, nOps)
		for i := range m.Ops {
			splits[g][i], _ = SplitExpr(m.Ops[i].Expr, g+1)
		}
	}

	for S := 1; S <= min(cfg.NChips, nOps); S++ {
		cuts, capped := enumerateCuts(m, S, maxEnum)
		sp.capped = sp.capped || capped
		sp.cuts = append(sp.cuts, cuts)
	}
	sp.walk(func(bounds, gv []int) error {
		for s, g := range gv {
			if k := sp.slot(bounds[s], bounds[s+1], g); sp.index[k] < 0 {
				sp.index[k] = len(sp.Stages)
				sp.Stages = append(sp.Stages, Stage{Start: bounds[s], End: bounds[s+1], Split: g,
					Model: stageModel(m, bounds[s], bounds[s+1], g, splits[g-1])})
			}
		}
		return nil
	})
	return sp, nil
}

// walk calls f on every candidate in enumeration order — stage counts
// ascending, then cut vectors, then split vectors in lexicographic
// order — with its stage bounds (0, cuts…, ops) and per-stage splits.
// Both slices are reused across calls. The walk stops at f's first
// error and returns it.
func (sp *Space) walk(f func(bounds, splits []int) error) error {
	for si, cuts := range sp.cuts {
		bounds, gv := make([]int, si+2), make([]int, si+1)
		bounds[si+1] = len(sp.m.Ops)
		for _, cv := range cuts {
			copy(bounds[1:], cv)
			for i := range gv {
				gv[i] = 1
			}
			for ok := true; ok; ok = nextSplit(gv, sp.nChips, sp.maxSplit) {
				if err := f(bounds, gv); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// Search walks the candidates a second time, prices each by its
// stages' indices through the Compile callback plus the transfer model,
// and returns the cheapest. A stage compiles at most once, the first
// time a candidate reaches it. ctx is polled between candidates: once
// it is done, Search returns ctx.Err().
func (sp *Space) Search(ctx context.Context, ic device.Interconnect, compile Compile) (*Result, error) {
	m := sp.m
	stages := append([]Stage(nil), sp.Stages...) // filled in as they compile
	done, errs := make([]bool, len(stages)), make([]error, len(stages))
	compileStage := func(i int) error {
		st := &stages[i]
		if done[i] {
			return errs[i]
		}
		done[i] = true
		if st.Model == nil {
			errs[i] = fmt.Errorf("stage %s[%d:%d): op not row-splittable %d ways", m.Name, st.Start, st.End, st.Split)
			return errs[i]
		}
		if st.Handle, st.ComputeNs, errs[i] = compile(i); errs[i] == nil && st.Split > 1 {
			// all-gather closing a tensor-parallel stage: each chip
			// holds 1/g of every boundary output and needs the rest
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
		}
		return errs[i]
	}

	res := &Result{CappedCuts: sp.capped}
	var lastErr error

	// price every candidate; bounds are its S+1 stage boundaries
	// (exclusive op indices), ascending from 0 to the op count
	if err := sp.walk(func(bounds, splits []int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		res.Enumerated++
		S := len(splits)
		p := &Partition{Microbatches: sp.micro}
		for s := 0; s < S; s++ {
			i := sp.index[sp.slot(bounds[s], bounds[s+1], splits[s])]
			if err := compileStage(i); err != nil {
				res.Infeasible++
				lastErr = err
				return nil
			}
			p.Stages = append(p.Stages, stages[i])
			p.Chips += splits[s]
			p.ComputeNs += stages[i].ComputeNs
		}

		// pipeline boundaries: activations crossing a cut, one hop
		// (pipeline neighbours are adjacent on every topology)
		for s := 1; s < S; s++ {
			for i := bounds[s]; i < bounds[s+1]; i++ {
				o := &m.Ops[i]
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
					p.Boundaries = append(p.Boundaries, b)
				}
			}
		}

		stageNs := make([]float64, S)
		for s := range p.Stages {
			stageNs[s] = p.Stages[s].ComputeNs
		}
		p.TotalNs, p.TransferNs, p.BubbleNs = p.Price(stageNs)
		if res.Best == nil || cheaper(p, res.Best) {
			res.Best = p
		}
		return nil
	}); err != nil {
		return nil, err
	}
	if res.Best == nil {
		return nil, &InfeasibleError{NChips: sp.nChips, Tried: res.Enumerated, Err: lastErr}
	}
	return res, nil
}

// cheaper reports whether p beats best: a lower priced total, then
// fewer chips, then fewer stages. On a full tie the incumbent — the
// first enumerated — stays.
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

// enumerateCuts returns the cut vectors (S-1 ascending op indices in
// [1,nOps)) for S stages. Full enumeration when it fits the budget;
// otherwise a FLOP-balanced fallback: each cut is confined to a ±2
// window around the position where the cumulative FLOP share reaches
// its stage fraction, which keeps the candidate count bounded while
// still covering the near-balanced region where good pipelines live.
func enumerateCuts(m *graph.Model, S, budget int) ([][]int, bool) {
	nOps := len(m.Ops)
	if S == 1 {
		return [][]int{nil}, false
	}
	if new(big.Int).Binomial(int64(nOps-1), int64(S-1)).Cmp(big.NewInt(int64(budget))) <= 0 {
		var out [][]int
		cur := make([]int, 0, S-1)
		var rec func(next int)
		rec = func(next int) {
			if len(cur) == S-1 {
				out = append(out, append([]int(nil), cur...))
				return
			}
			// leave room for the remaining cuts
			for c := next; c <= nOps-(S-1-len(cur)); c++ {
				cur = append(cur, c)
				rec(c + 1)
				cur = cur[:len(cur)-1]
			}
		}
		rec(1)
		return out, false
	}

	// balanced-window fallback
	prefix := make([]float64, nOps+1)
	for i := range m.Ops {
		prefix[i+1] = prefix[i] + float64(m.Ops[i].Expr.FLOPs()*int64(repeatOf(&m.Ops[i])))
	}
	total := prefix[nOps]
	const w = 2
	windows := make([][]int, S-1)
	for c := 1; c < S; c++ {
		target := total * float64(c) / float64(S)
		pos := 1
		for pos < nOps && prefix[pos] < target {
			pos++
		}
		for d := -w; d <= w; d++ {
			if p := pos + d; p >= 1 && p <= nOps-1 {
				windows[c-1] = append(windows[c-1], p)
			}
		}
	}
	var out [][]int
	cur := make([]int, 0, S-1)
	var rec func(ci int)
	rec = func(ci int) {
		if ci == S-1 {
			out = append(out, append([]int(nil), cur...))
			return
		}
		for _, p := range windows[ci] {
			if len(cur) > 0 && p <= cur[len(cur)-1] {
				continue
			}
			cur = append(cur, p)
			rec(ci + 1)
			cur = cur[:len(cur)-1]
		}
	}
	rec(0)
	return out, true
}

// nextSplit advances gv to the next per-stage chip assignment in
// lexicographic order — g_s in [1,maxSplit], Σ g_s ≤ nChips (a
// partition may leave chips idle) — and reports whether there is one;
// the walk starts at all ones. It bumps the last stage that can take
// one more chip with every later stage back at one.
func nextSplit(gv []int, nChips, maxSplit int) bool {
	sum := 0
	for _, g := range gv {
		sum += g
	}
	for s := len(gv) - 1; s >= 0; s-- {
		if gv[s] < maxSplit && sum < nChips {
			gv[s]++
			return true
		}
		sum -= gv[s] - 1
		gv[s] = 1
	}
	return false
}
