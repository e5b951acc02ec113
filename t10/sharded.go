package t10

import (
	"context"
	"fmt"
	"time"

	"repro/internal/device"
	"repro/internal/expr"
	"repro/internal/graph"
	"repro/internal/perf"
	"repro/internal/plancache"
	"repro/internal/scaleout"
	"repro/internal/search"
)

// ShardedExecutable is a model compiled across several chips of one
// device generation: one single-chip Executable per pipeline stage plus
// the partition that says how activations move between them. It is
// simulatable end-to-end — per-stage chip simulation composed with the
// interconnect transfer schedule.
type ShardedExecutable struct {
	Model *graph.Model
	Spec  *device.Spec

	// Partition is the winning candidate: stage ranges, tensor-parallel
	// splits, boundary transfer schedule, priced totals. Its stage
	// handles alias the entries of Stages.
	Partition *scaleout.Partition

	// Stages holds the per-chip executables, index-aligned with
	// Partition.Stages. A stage with Split > 1 runs the same executable
	// on each of its chips (row-split inputs, replicated weights).
	Stages []*Executable

	CompileTime time.Duration
}

// Chips returns how many chips the executable occupies.
func (se *ShardedExecutable) Chips() int { return se.Partition.Chips }

// ShardedReport is the end-to-end simulation of a ShardedExecutable:
// per-stage single-chip reports composed through the partition's
// pipeline model.
type ShardedReport struct {
	Model  string
	Stages []*perf.Report

	// ComputeNs is Σ simulated stage time; TransferNs the interconnect
	// share (boundaries + all-gathers); BubbleNs the pipeline-imbalance
	// share of the steady-state term; TotalNs the end-to-end time of one
	// inference through the pipeline.
	ComputeNs  float64
	TransferNs float64
	BubbleNs   float64
	TotalNs    float64
}

// LatencyMs returns the end-to-end latency in milliseconds.
func (r *ShardedReport) LatencyMs() float64 { return r.TotalNs / 1e6 }

// Simulate lowers every stage onto its simulated chip and composes the
// stage times through the partition's pipeline cost model
// (scaleout.Partition.Price): transfers from the generation's
// interconnect descriptor, a bubble term when the batch is
// microbatched.
func (se *ShardedExecutable) Simulate() *ShardedReport {
	rep := &ShardedReport{Model: se.Model.Name}
	stageNs := make([]float64, len(se.Stages))
	for i, exe := range se.Stages {
		sr := exe.Simulate()
		rep.Stages = append(rep.Stages, sr)
		stageNs[i] = sr.TotalNs
		rep.ComputeNs += sr.TotalNs
	}
	rep.TotalNs, rep.TransferNs, rep.BubbleNs = se.Partition.Price(stageNs)
	return rep
}

// ShardedResult is CompileShardedWithResult's full return: the
// executable plus the outer search's accounting and the request
// telemetry aggregated across every stage it assembled.
type ShardedResult struct {
	Executable *ShardedExecutable

	// Search is the partition search outcome: the winning partition
	// and the candidate counters.
	Search *scaleout.Result

	Telemetry Telemetry
}

// CompileSharded partitions m across nChips chips of the compiler's
// device generation and compiles each pipeline stage with the ordinary
// single-chip pipeline (intra-op Pareto search + inter-op
// reconciliation, through the shared plan cache). The outer search
// covers every partition into pipeline cuts and tensor-parallel row
// splits: each stage is compiled and simulated once, and the cheapest
// partition under the generation's Interconnect transfer model is found
// exactly, by a dynamic program over (ops placed, chips used), not by
// pricing candidates one by one. The simulator, not an analytic
// estimate, picks the winner.
//
// nChips == 1 degenerates to the plain single-chip compile: the only
// candidate is the whole model on one chip, compiled through exactly
// the same path as Compile, so the resulting stage executable is
// bit-identical to Compile's.
//
// A model too large for one chip (weights exceeding the SRAM) is the
// motivating case: single-chip compiles of oversized stages fail with
// *interop.InfeasibleError, those candidates are pruned, and a pipeline
// cut that fits wins. When no candidate fits at all, the error is a
// *scaleout.InfeasibleError wrapping the last per-stage cause.
func (c *Compiler) CompileSharded(ctx context.Context, m *graph.Model, nChips int, opts ...CompileOption) (*ShardedExecutable, error) {
	sr, err := c.CompileShardedWithResult(ctx, m, nChips, opts...)
	if err != nil {
		return nil, err
	}
	return sr.Executable, nil
}

// CompileShardedWithResult is CompileSharded returning the outer
// search's accounting (winner, candidate counters) and the request
// telemetry alongside the executable. scaleout.NewSpace names every
// stage a candidate can use, each is prepared once into the request's
// one search list — what a shared pool prices — and the list runs once,
// each search answering one route; the partition search then assembles
// and simulates the stages from the results, one after another, with
// their walls summed. WithDetachOnCancel holds as for Compile.
func (c *Compiler) CompileShardedWithResult(ctx context.Context, m *graph.Model, nChips int, opts ...CompileOption) (*ShardedResult, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if nChips < 1 {
		return nil, fmt.Errorf("t10: CompileSharded needs at least one chip, got %d", nChips)
	}
	if nChips > 1 && c.Spec.Interconnect == (device.Interconnect{}) {
		return nil, fmt.Errorf("t10: device %s has no interconnect descriptor; cannot scale out to %d chips",
			c.Spec.Name, nChips)
	}
	start := time.Now()
	cfg := scaleout.Config{NChips: nChips, Microbatches: resolveReqOptions(opts).microbatches}
	var sp *scaleout.Space
	var l searchList
	sr, tel, err := run(ctx, c, opts, func() (*searchList, error) {
		var err error
		sp, err = c.listSharded(m, cfg, &l)
		return &l, err
	}, func(reqCtx, searchCtx context.Context, col *search.Collector, tel *Telemetry) (*ShardedResult, error) {
		found, err := c.searchAll(reqCtx, searchCtx, &l, col, tel)
		if err != nil {
			return nil, err
		}
		// the per-chip leaf, once per stage: the whole unsplit stage is
		// the model itself, so the 1-chip candidate is what Compile makes
		res, err := sp.Search(reqCtx, c.Spec.Interconnect, func(i int) (any, float64, error) {
			exe, err := c.assemble(l.models[i], found, col, tel)
			if err != nil {
				return nil, 0, err
			}
			return exe, exe.simulate(nil).TotalNs, nil
		})
		if err != nil {
			return nil, err
		}
		stages := make([]*Executable, len(res.Best.Stages))
		for i := range res.Best.Stages {
			stages[i] = res.Best.Stages[i].Handle.(*Executable)
		}
		return &ShardedResult{
			Executable: &ShardedExecutable{Model: m, Spec: c.Spec, Partition: res.Best, Stages: stages},
			Search:     res,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	sr.Executable.CompileTime = time.Since(start)
	sr.Telemetry = tel
	return sr, nil
}

// listSharded lists a sharded compile of m into l: every stage
// NewSpace names is prepared once, in its order, and each distinct
// expression — the stages share one per (op, split) — is keyed once.
func (c *Compiler) listSharded(m *graph.Model, cfg scaleout.Config, l *searchList) (*scaleout.Space, error) {
	sp, err := scaleout.NewSpace(m, cfg)
	if err != nil {
		return nil, err
	}
	l.byKey, l.byExpr = map[plancache.Key]int{}, map[*expr.Expr]int{}
	for i := range sp.Stages {
		if err := c.prepare(sp.Stages[i].Model, l); err != nil {
			return nil, err
		}
	}
	return sp, nil
}
