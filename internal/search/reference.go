package search

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/expr"
)

// Reference is the brute-force search the engine is checked against and
// the search-space figures (Fig 17/18) count on: sequential, uncached
// and unpruned, it builds a core.Plan for every leaf of every Fop's full
// temporal-factor product, applies the padding filter (sketchPaddingOK)
// and the core-memory filter, and prices the survivors with
// Plan.Estimate into a Frontier in enumeration order. It shares no
// pruning, prefix or sketch-pricing code with the engine, so its Pareto
// set independently checks SearchOp's, and its Spaces.Filtered is the
// exact rule-based count (all of it Priced).
func (s *Searcher) Reference(e *expr.Expr) (*Result, error) {
	start := time.Now()
	fops := s.enumerateFops(e)
	if len(fops) == 0 {
		return nil, fmt.Errorf("search %s: no operator partition passes the constraints", e.Name)
	}
	r := &Result{Op: e.Name, Spaces: Spaces{FusedOps: e.FusedOps}}
	tensors := e.Tensors()
	last := len(tensors) - 1
	perTensor := make([][][]int, len(tensors))
	perTensor[last] = ftNoSplit // the output never takes temporal factors
	fts := make([][]int, len(tensors))
	var front Frontier
	var expand func(fop []int, ti int)
	expand = func(fop []int, ti int) {
		if ti < len(tensors) {
			for _, choice := range perTensor[ti] {
				fts[ti] = choice
				expand(fop, ti+1)
			}
			return
		}
		p, err := core.NewPlan(e, fop, fts, s.Cfg)
		if err != nil || !s.sketchPaddingOK(e, p.Fop, p.SubLen) || p.MemPerCore() > int64(s.Spec.CoreMemBytes) {
			return
		}
		r.Spaces.Filtered++
		front.Insert(Candidate{Plan: p, Est: p.Estimate(s.CM)})
	}
	for _, fop := range fops {
		for ti, tr := range tensors[:last] {
			var truncated bool
			if perTensor[ti], truncated = s.ftChoices(tr, tensorShare(e, tr, fop)); truncated {
				r.Spaces.TruncatedFtCombos++
			}
		}
		expand(fop, 0)
	}
	r.Pareto = front.Candidates()
	if len(r.Pareto) == 0 {
		return nil, fmt.Errorf("search %s: every candidate exceeds core memory", e.Name)
	}
	r.Spaces.Priced, r.Spaces.Optimized = r.Spaces.Filtered, len(r.Pareto)
	r.Elapsed = time.Since(start)
	return r, nil
}

// sketchPaddingOK checks the padding ratio after temporal factors
// rounded the sub-operator extents up — Reference's leaf-level filter;
// the engine decides the rule on the prefix (core.PlanSketch.PaddingMin).
func (s *Searcher) sketchPaddingOK(e *expr.Expr, fop, subLen []int) bool {
	for a := range e.Axes {
		padded := subLen[a] * fop[a]
		if float64(e.Axes[a].Size)/float64(padded) < s.Cons.PaddingMin {
			return false
		}
	}
	return true
}
