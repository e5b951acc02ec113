//go:build apicheck

// Package-surface check, gated behind the apicheck build tag and run by
// `make apicheck` in CI: it references every public symbol of the t10
// package — the entry points and the per-request and construction
// options — so an accidental signature change or symbol removal breaks
// this file's compilation before it breaks a downstream user. The single test does one tiny end-to-end
// pass; everything else only needs to compile.
package t10_test

import (
	"context"
	"testing"
	"time"

	"repro/internal/costmodel"
	"repro/internal/device"
	"repro/internal/dtype"
	"repro/internal/expr"
	"repro/internal/graph"
	"repro/internal/kernel"
	"repro/internal/models"
	"repro/internal/plancache"
	"repro/internal/scaleout"
	"repro/internal/search"
	"repro/internal/sema"
	"repro/t10"
)

// Signature pins: assigning the methods to typed variables fails to
// compile the moment a signature drifts.
var (
	_ func(*device.Spec, t10.Options, ...t10.CompilerOption) (*t10.Compiler, error) = t10.New
	_ func() t10.Options                                                            = t10.DefaultOptions

	_ func(string, costmodel.CostFunc) t10.CompilerOption = t10.WithCostFunc
	_ func(graph.RuleSet) t10.CompilerOption              = t10.WithFusion
	_ func(*costmodel.SampleRing, int) t10.CompilerOption = t10.WithCalibration
	_ func(*t10.Compiler) (costmodel.Calibration, bool)   = (*t10.Compiler).Calibration
	_ func() t10.CompileOption                            = t10.WithDetachOnCancel
	_ func(int) t10.CompileOption                         = t10.WithPipelineMicrobatches
	_ func(int) *t10.DetachLimit                          = t10.NewDetachLimit

	// entry points
	_ func(*t10.Compiler, context.Context, *graph.Model, ...t10.CompileOption) (*t10.Executable, error)    = (*t10.Compiler).Compile
	_ func(*t10.Compiler, context.Context, *expr.Expr, ...t10.CompileOption) (*search.Result, error)       = (*t10.Compiler).Search
	_ func(*t10.Compiler, context.Context, *graph.Model, ...t10.CompileOption) (*t10.CompileResult, error) = (*t10.Compiler).CompileWithResult
	_ func(*t10.Compiler, context.Context, *expr.Expr, ...t10.CompileOption) (*t10.SearchResult, error)    = (*t10.Compiler).SearchWithResult
	_ func(*t10.Compiler, *graph.Model) (t10.CostEstimate, error)                                          = (*t10.Compiler).EstimateCost
	_ func(t10.CostEstimate, int) int                                                                      = t10.CostEstimate.Weight

	// multi-chip scale-out surface
	_ func(*t10.Compiler, context.Context, *graph.Model, int, ...t10.CompileOption) (*t10.ShardedExecutable, error) = (*t10.Compiler).CompileSharded
	_ func(*t10.Compiler, context.Context, *graph.Model, int, ...t10.CompileOption) (*t10.ShardedResult, error)     = (*t10.Compiler).CompileShardedWithResult
	_ func(*t10.ShardedExecutable) *t10.ShardedReport                                                               = (*t10.ShardedExecutable).Simulate
	_ func(*t10.ShardedExecutable) int                                                                              = (*t10.ShardedExecutable).Chips
	_ func(*t10.ShardedReport) float64                                                                              = (*t10.ShardedReport).LatencyMs

	// parameterized device generations and the inter-chip fabric
	_ func() []*device.Spec                    = device.Generations
	_ func() *device.Spec                      = device.SP2Stress
	_ func(*device.Spec) string                = (*device.Spec).GenerationKey
	_ func(*device.Spec) int                   = (*device.Spec).AMPGranuleBytes
	_ func(device.Interconnect, int64) float64 = device.Interconnect.TransferNs
	_ func(device.Interconnect, int) int       = device.Interconnect.GatherHops
	_ func(*device.SpecError) string           = (*device.SpecError).Error

	// telemetry surface
	_ func(*t10.Telemetry) time.Duration = (*t10.Telemetry).StageSum
	_ func(*t10.DetachLimit) int64       = (*t10.DetachLimit).Active
	_ func(*t10.DetachLimit) int64       = (*t10.DetachLimit).Rejected

	// observability surface (Executable.Simulate is exercised in the
	// runtime check below, where its concrete return type is in scope)
	_ func(*t10.Compiler) *plancache.Cache = (*t10.Compiler).PlanCache
	_ func(*t10.Compiler) plancache.Stats  = (*t10.Compiler).CacheStats

	// calibration surface reached through t10.WithCalibration
	_ func(int) *costmodel.SampleRing                                 = costmodel.NewSampleRing
	_ func(*costmodel.SampleRing, kernel.Task, float64)               = (*costmodel.SampleRing).Record
	_ func(*costmodel.SampleRing, *device.Spec, kernel.Task, float64) = (*costmodel.SampleRing).RecordMeasured
	_ func(*costmodel.SampleRing) uint64                              = (*costmodel.SampleRing).Total
	_ func(costmodel.Calibration) string                              = costmodel.Calibration.Tag
)

// Struct-field pins: Options and CostEstimate are part of the API.
var (
	_ = t10.Options{
		Constraints: search.Constraints{},
		Workers:     1,
		CacheDir:    "",
		SharedCache: (*plancache.Cache)(nil),
		SharedPool:  (*sema.Sem)(nil),
		DetachLimit: (*t10.DetachLimit)(nil),
		CacheSalt:   nil,
	}
	_ = t10.CostEstimate{Ops: 1, CachedOps: 1, DiskOps: 0, ColdOps: 0, ColdFops: 0, Stages: 1}
	_ = t10.WeightFopUnit

	// the result-bearing surface: the full telemetry record and the
	// result wrappers
	_ = t10.Telemetry{
		AdmissionWait: 0, CacheProbe: 0, ColdSearch: 0, Reconcile: 0, Wall: 0,
		AdmissionWeight: 0,
		Counts: search.Counts{
			RouteMemory: 0, RouteDisk: 0, RouteRemote: 0, RouteFlightWait: 0, RouteCold: 0,
			FusedGroups: 0, FusedOps: 0,
			Filtered: 0, Priced: 0, Pruned: 0, Seeded: 0, CutSubtrees: 0, CutLeaves: 0,
		},
	}
	_ = t10.CompileResult{Executable: (*t10.Executable)(nil), Telemetry: t10.Telemetry{}}
	_ = t10.SearchResult{Result: (*search.Result)(nil), Telemetry: t10.Telemetry{}}
	_ = t10.Executable{
		Model: (*graph.Model)(nil), Spec: (*device.Spec)(nil),
		Schedule: nil, Plans: nil, Fusion: (*graph.FusedGraph)(nil),
		CompileTime: 0,
	}

	// the sharded result surface and the fabric descriptor
	_ = t10.ShardedExecutable{
		Model: (*graph.Model)(nil), Spec: (*device.Spec)(nil),
		Partition: (*scaleout.Partition)(nil), Stages: []*t10.Executable(nil),
		CompileTime: 0,
	}
	_ = t10.ShardedReport{
		Model: "", Stages: nil,
		ComputeNs: 0, TransferNs: 0, BubbleNs: 0, TotalNs: 0,
	}
	_ = t10.ShardedResult{
		Executable: (*t10.ShardedExecutable)(nil),
		Search:     (*scaleout.Result)(nil),
		Telemetry:  t10.Telemetry{},
	}
	_ = device.Interconnect{LinkGBps: 0, LatencyNs: 0, Topology: device.TopoRing}
	_ = []device.Topology{device.TopoRing, device.TopoMesh2D, device.TopoAllToAll}
	_ = device.SpecError{Device: "", Field: "", Reason: ""}
)

// TestAPICheck is the one runtime pass: a tiny device, one op, every
// entry point touched once.
func TestAPICheck(t *testing.T) {
	f := func(task kernel.Task) float64 { return float64(task.M*task.N) + 1 }
	c, err := t10.New(device.IPUMK2().Subset(16), t10.DefaultOptions(),
		t10.WithCostFunc("custom", f))
	if err != nil {
		t.Fatal(err)
	}
	e := expr.MatMul("mm", 64, 64, 64, dtype.FP16)
	if _, err := c.Search(context.Background(), e, t10.WithDetachOnCancel()); err != nil {
		t.Fatal(err)
	}
	sr, err := c.SearchWithResult(context.Background(), e)
	if err != nil {
		t.Fatal(err)
	}
	if sr.Telemetry.StageSum() > sr.Telemetry.Wall {
		t.Fatal("stage sum exceeds wall")
	}
	m := models.TransformerTrainingStep(1, 16, 32, 64, 1)
	if _, err := c.EstimateCost(m); err != nil {
		t.Fatal(err)
	}
	cr, err := c.CompileWithResult(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	exe := cr.Executable
	if rep := exe.Simulate(); rep.TotalNs <= 0 {
		t.Fatal("no latency")
	}
	if c.PlanCache() == nil || c.CacheStats().Entries == 0 {
		t.Fatal("cache observability broken")
	}
	se, err := c.CompileSharded(context.Background(), m, 2, t10.WithPipelineMicrobatches(2))
	if err != nil {
		t.Fatal(err)
	}
	if se.Chips() < 1 || se.Simulate().TotalNs <= 0 {
		t.Fatal("sharded compile broken")
	}
}
