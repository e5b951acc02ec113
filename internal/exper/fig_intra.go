package exper

import (
	"context"
	"fmt"
	"time"

	"repro/internal/dtype"
	"repro/internal/expr"
	"repro/internal/models"
	"repro/internal/search"
	"repro/internal/vgm"
	"repro/t10"
)

func init() {
	registry["fig17"] = (*Harness).Fig17
	registry["fig18"] = (*Harness).Fig18
	registry["fig19"] = (*Harness).Fig19
	registry["fig20"] = (*Harness).Fig20
}

// representativeOps are the operators Fig 17/18 study, constructed at
// the paper's model/batch shapes.
func representativeOps() []*expr.Expr {
	return []*expr.Expr{
		expr.Conv2D("Conv (ResNet-256)", 256, 64, 64, 56, 56, 3, 3, 1, dtype.FP16),
		expr.MatMul("MatMul (BERT-16)", 16*128, 1024, 4096, dtype.FP16),
		expr.GatherOp("GatherV2 (BERT-16)", 16*128, 30522, 1024, dtype.FP16),
		expr.Pool2D("Pool (ResNet-256)", 256, 64, 28, 28, 2, 2, 2, dtype.FP16),
		expr.ReduceSum("Sum (ViT-128)", 128*197, 768, dtype.FP16),
	}
}

// Fig17 regenerates the candidate-plan scatter for representative
// operators: the Pareto frontier T10 keeps, against the single plan a
// VGM compiler would use.
func (h *Harness) Fig17() (*Table, error) {
	s, err := h.reference()
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title: "Fig 17: Pareto-optimal execution plans per operator",
		Cols: []string{"Operator", "Plans", "Pareto", "MinMem KB", "MinMem ms",
			"MaxMem KB", "MaxMem ms", "Roller KB", "Roller ms"},
	}
	roller := vgm.New(vgm.Roller, h.Spec)
	ops := []*expr.Expr{
		expr.Conv2D("Conv (ResNet-32)", 32, 64, 64, 56, 56, 3, 3, 1, dtype.FP16),
		expr.MatMul("MatMul (BERT-16)", 16*128, 1024, 4096, dtype.FP16),
		expr.MatMul("MatMul (ViT-128)", 128*197, 768, 3072, dtype.FP16),
		expr.MatMul("MatMul (NeRF-1)", 65536, 64, 64, dtype.FP16),
	}
	for _, e := range ops {
		r, err := s.Reference(e)
		if err != nil {
			return nil, err
		}
		lo := r.Pareto[0]
		hi := r.Pareto[len(r.Pareto)-1]
		rKB, rMS := "✖", "✖"
		if mem, ns, err := roller.PlanPoint(e, 0); err == nil {
			rKB = formatFloat(float64(mem) / 1024)
			rMS = formatFloat(ns / 1e6)
		}
		t.Add(e.Name, r.Spaces.Filtered, len(r.Pareto),
			float64(lo.Est.MemPerCore)/1024, lo.Est.TotalNs/1e6,
			float64(hi.Est.MemPerCore)/1024, hi.Est.TotalNs/1e6,
			rKB, rMS)
	}
	t.Notes = append(t.Notes,
		"each frontier spans a memory/time trade-off the inter-op scheduler exploits; VGM compilers pick one point")
	return t, nil
}

// Fig18 regenerates the search-space size comparison: complete (all
// plans), filtered (after rule-based constraints), optimized (Pareto).
// The complete space is a property of the expression, estimated here on
// demand; the other two come out of the reference search.
func (h *Harness) Fig18() (*Table, error) {
	s, err := h.reference()
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title: "Fig 18: intra-operator search space sizes",
		Cols:  []string{"Operator", "Complete", "Filtered", "Optimized", "Truncated ft"},
	}
	for _, e := range representativeOps() {
		r, err := s.Reference(e)
		if err != nil {
			return nil, err
		}
		t.Add(e.Name, search.CompleteSpace(e).String(), r.Spaces.Filtered, r.Spaces.Optimized,
			r.Spaces.TruncatedFtCombos)
	}
	t.Notes = append(t.Notes,
		"paper: complete up to ~10^19, filtered < 10^4, optimized < ~50",
		"truncated ft: per-tensor temporal-factor enumerations capped at the search's fixed 64 combinations — no silent truncation",
		"filtered is counted by search.Searcher.Reference: the engine cuts dominated subtrees before counting them",
		"complete is search.CompleteSpace(expr), estimated here: it needs no device or constraint, and no search computes it")
	return t, nil
}

// Fig19 regenerates the constraint sweep over the paper's two knobs:
// stricter search constraints compile faster at some cost in plan
// quality.
func (h *Harness) Fig19() (*Table, error) {
	t := &Table{
		Title: "Fig 19: compile time vs execution time across constraint settings (BERT-BS1)",
		Cols:  []string{"ParallelismMin", "PaddingMin", "Compile (s)", "Latency (ms)"},
	}
	settings := []search.Constraints{
		{ParallelismMin: 0.95, PaddingMin: 0.95},
		{ParallelismMin: 0.90, PaddingMin: 0.90},
		{ParallelismMin: 0.75, PaddingMin: 0.85},
		{ParallelismMin: 0.50, PaddingMin: 0.80},
	}
	for _, cons := range settings {
		opts := t10.DefaultOptions()
		opts.Constraints = cons
		opts.SharedCache = h.planCache // distinct constraints → distinct keys
		c, err := t10.New(h.Spec, opts)
		if err != nil {
			return nil, err
		}
		m := models.BERT(1)
		start := time.Now()
		exe, err := c.Compile(context.Background(), m)
		if err != nil {
			t.Add(cons.ParallelismMin, cons.PaddingMin, time.Since(start).Seconds(), "✖")
			continue
		}
		rep := exe.Simulate()
		t.Add(cons.ParallelismMin, cons.PaddingMin, exe.CompileTime.Seconds(), rep.LatencyMs())
	}
	t.Notes = append(t.Notes,
		"paper: strict settings compiling in a minute already reach near-optimal latency")
	return t, nil
}

// Fig20 regenerates the inter-operator search trace: end-to-end time as
// the greedy reconciliation trades active memory for idle memory.
func (h *Harness) Fig20() (*Table, error) {
	c, err := h.t10For(h.Spec)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title: "Fig 20: inter-operator reconciliation trace (BERT-BS1)",
		Cols:  []string{"Step", "Idle mem (% of core)", "Est. total (ms)", "Chosen"},
	}
	m := models.BERT(1)
	exe, err := c.Compile(context.Background(), m)
	if err != nil {
		return nil, err
	}
	sched := exe.Schedule
	for i, p := range sched.Trace {
		chosen := ""
		if p.IdleMemPerCore == sched.IdleMemPerCore && p.TotalNs == sched.TotalNs {
			chosen = "★"
		}
		t.Add(i, fmt.Sprintf("%.1f%%", 100*float64(p.IdleMemPerCore)/float64(h.Spec.CoreMemBytes)),
			p.TotalNs/1e6, chosen)
	}
	t.Notes = append(t.Notes,
		"paper: T10 expands idle memory for performance-critical operators; the left-most point is Roller-like (min idle memory)")
	return t, nil
}
