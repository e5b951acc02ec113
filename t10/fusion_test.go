package t10

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/dtype"
	"repro/internal/expr"
	"repro/internal/graph"
	"repro/internal/search"
)

// fusionChainModel is the canonical epilogue chain of the fusion pass:
// MatMul → bias-style binary pointwise → activation. Under
// DefaultRules the three ops fold into one composed operator.
func fusionChainModel() *graph.Model {
	return &graph.Model{Name: "fusion-chain", BatchSize: 1, Ops: []graph.Op{
		{
			Name:         "mm",
			Expr:         expr.MatMul("mm", 16, 32, 8, dtype.FP16),
			WeightInputs: []int{1},
			Sources:      []int{graph.External, graph.External},
		},
		{
			Name:    "bias",
			Expr:    expr.EltwiseBinary("bias", 16, 8, dtype.FP16),
			Sources: []int{0, graph.External},
		},
		{
			Name:    "act",
			Expr:    expr.Elementwise("act", 16, 8, 1, dtype.FP16),
			Sources: []int{1},
		},
	}}
}

// executeAny runs the first candidate of the op's result that functional
// execution accepts (the active plan first, then the Pareto set — padded
// partitionings are rejected by Execute, not wrong).
func executeAny(t *testing.T, active *search.Candidate, pareto []search.Candidate, inputs map[string][]float32) []float32 {
	t.Helper()
	try := []*core.Plan{active.Plan}
	for i := range pareto {
		try = append(try, pareto[i].Plan)
	}
	for _, p := range try {
		out, err := codegen.Execute(p, inputs)
		if err == nil {
			return out
		}
	}
	t.Fatal("no candidate plan was functionally executable")
	return nil
}

// TestFusionCompileEquivalence is the end-to-end fusion contract: a
// MatMul+bias+activation chain compiled with WithFusion collapses to a
// single reconciled operator whose plan computes the same function as
// the unfused chain, at a total estimated cost no worse than the
// unfused compile — and the telemetry reports the group it formed.
func TestFusionCompileEquivalence(t *testing.T) {
	spec := device.IPUMK2().Subset(16)
	ctx := context.Background()

	cu, err := New(spec, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	exeU, err := cu.Compile(ctx, fusionChainModel())
	if err != nil {
		t.Fatal(err)
	}

	cf, err := New(spec, DefaultOptions(), WithFusion(graph.DefaultRules()))
	if err != nil {
		t.Fatal(err)
	}
	crF, err := cf.CompileWithResult(ctx, fusionChainModel())
	if err != nil {
		t.Fatal(err)
	}
	exeF := crF.Executable

	// fewer reconciliation round-trips: the schedule reconciles one
	// operator instead of three
	if len(exeU.Model.Ops) != 3 || len(exeF.Model.Ops) != 1 {
		t.Fatalf("ops unfused=%d fused=%d, want 3/1", len(exeU.Model.Ops), len(exeF.Model.Ops))
	}
	if len(exeF.Plans) != 1 || len(exeF.Schedule.Assignments) != 1 {
		t.Fatalf("fused schedule covers %d plans / %d assignments, want 1/1",
			len(exeF.Plans), len(exeF.Schedule.Assignments))
	}
	if exeU.Fusion != nil {
		t.Fatal("unfused executable must carry no fusion mapping")
	}
	if exeF.Fusion == nil || exeF.Fusion.GroupCount() != 1 || exeF.Fusion.FusedOpCount() != 3 {
		t.Fatalf("fusion mapping = %+v, want 1 group of 3 ops", exeF.Fusion)
	}
	if crF.Telemetry.FusedGroups != 1 || crF.Telemetry.FusedOps != 3 {
		t.Fatalf("telemetry fusion = %d groups / %d ops, want 1/3",
			crF.Telemetry.FusedGroups, crF.Telemetry.FusedOps)
	}

	// total estimated cost: the fused compile must not be priced worse
	// than the chain it replaced (it saves the intermediate round-trips
	// and two vertex launches; the epilogue ALU cycles are still paid)
	if exeF.Schedule.TotalNs > exeU.Schedule.TotalNs {
		t.Fatalf("fused schedule %.1f ns > unfused %.1f ns", exeF.Schedule.TotalNs, exeU.Schedule.TotalNs)
	}

	// functional equivalence: the fused plan's compute-shift execution
	// must equal the chained reference computed directly
	const M, K, N = 16, 32, 8
	rng := rand.New(rand.NewSource(7))
	buf := func(n int) []float32 {
		b := make([]float32, n)
		for i := range b {
			b[i] = rng.Float32()*2 - 1
		}
		return b
	}
	a, b, y := buf(M*K), buf(K*N), buf(M*N)
	// fused inputs are the producer's operands plus the epilogue's
	// external operand, in input order: A, B (weight), Y (bias operand)
	fe := exeF.Model.Ops[0].Expr
	if len(fe.Inputs) != 3 {
		t.Fatalf("fused expr has %d inputs, want 3", len(fe.Inputs))
	}
	inputs := map[string][]float32{
		fe.Inputs[0].Name: a,
		fe.Inputs[1].Name: b,
		fe.Inputs[2].Name: y,
	}
	got := executeAny(t, exeF.Schedule.Assignments[0].Active, exeF.Plans[0].Result.Pareto, inputs)

	want := make([]float32, M*N)
	for m := 0; m < M; m++ {
		for n := 0; n < N; n++ {
			var acc float32
			for k := 0; k < K; k++ {
				acc += a[m*K+k] * b[k*N+n]
			}
			want[m*N+n] = acc * y[m*N+n]
		}
	}
	for i := range want {
		if d := math.Abs(float64(got[i] - want[i])); d > 1e-3 {
			t.Fatalf("fused output[%d] = %g, want %g (Δ %g)", i, got[i], want[i], d)
		}
	}

	// the fused executable still lowers and simulates end to end
	if rep := exeF.Simulate(); rep.TotalNs <= 0 {
		t.Fatal("fused executable did not simulate")
	}

	// the admission estimate prices the fused graph, so a recompile of
	// the same model is a weight-0 cache probe
	est, err := cf.EstimateCost(fusionChainModel())
	if err != nil {
		t.Fatal(err)
	}
	if est.Ops != 1 || est.ColdOps != 0 || est.Weight(8) != 0 {
		t.Fatalf("post-compile estimate = %+v, want 1 fully cached op", est)
	}
}

// TestFusionZeroRuleSetMatchesDefault proves the off switch: a compiler
// built with the zero RuleSet selects the same plans and schedule as
// one built without WithFusion at all.
func TestFusionZeroRuleSetMatchesDefault(t *testing.T) {
	spec := device.IPUMK2().Subset(16)
	ctx := context.Background()

	plain, err := New(spec, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	off, err := New(spec, DefaultOptions(), WithFusion(graph.RuleSet{}))
	if err != nil {
		t.Fatal(err)
	}
	exeP, err := plain.Compile(ctx, fusionChainModel())
	if err != nil {
		t.Fatal(err)
	}
	exeO, err := off.Compile(ctx, fusionChainModel())
	if err != nil {
		t.Fatal(err)
	}
	if exeO.Fusion != nil {
		t.Fatal("zero rule set must not produce a fusion mapping")
	}
	if len(exeO.Model.Ops) != len(exeP.Model.Ops) {
		t.Fatalf("op counts differ: %d vs %d", len(exeO.Model.Ops), len(exeP.Model.Ops))
	}
	if exeO.Schedule.TotalNs != exeP.Schedule.TotalNs {
		t.Fatalf("schedules differ: %.3f vs %.3f ns", exeO.Schedule.TotalNs, exeP.Schedule.TotalNs)
	}
	for i := range exeP.Schedule.Assignments {
		pa, oa := exeP.Schedule.Assignments[i].Active, exeO.Schedule.Assignments[i].Active
		if pa.Est.TotalNs != oa.Est.TotalNs {
			t.Fatalf("op %d active estimate differs: %v vs %v", i, pa.Est, oa.Est)
		}
	}
}
