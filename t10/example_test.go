package t10_test

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/internal/costmodel"
	"repro/internal/device"
	"repro/internal/dtype"
	"repro/internal/expr"
	"repro/internal/graph"
	"repro/internal/kernel"
	"repro/internal/models"
	"repro/internal/sema"
	"repro/t10"
)

// The basic v2 flow: one compiler per device, one Compile call per
// model, everything under a context.
func ExampleCompiler_Compile() {
	c, err := t10.New(device.IPUMK2(), t10.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	exe, err := c.Compile(context.Background(), models.BERT(1))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("ops planned:", len(exe.Plans) == len(exe.Model.Ops))
	fmt.Println("fits on chip:", exe.Schedule.IdleMemPerCore <= int64(c.Spec.CoreMemBytes))
	// Output:
	// ops planned: true
	// fits on chip: true
}

// Per-request options ride on the Compile call: a deadline comes from
// the context, and WithDetachOnCancel converts a cancelled request's
// in-flight operator searches into plan-cache warm-up (the retry hits
// instead of recomputing). Admission is no option: on a shared worker
// budget (Options.SharedPool) the compiler prices each request itself
// from the searches it is about to run, so a cold model takes several
// slots and a fully cached repeat none (see CostEstimate.Weight).
func ExampleCompiler_Compile_options() {
	opts := t10.DefaultOptions()
	opts.SharedPool = sema.NewShared(8, 16)
	c, err := t10.New(device.IPUMK2(), opts)
	if err != nil {
		log.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	m := models.BERT(1)
	cold, err := c.CompileWithResult(ctx, m, t10.WithDetachOnCancel())
	if err != nil {
		log.Fatal(err)
	}
	warm, err := c.CompileWithResult(ctx, m, t10.WithDetachOnCancel())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("cold compile takes several slots:", cold.Telemetry.AdmissionWeight > 1)
	fmt.Println("cached repeat skips admission:", warm.Telemetry.AdmissionWeight == 0)
	// Output:
	// cold compile takes several slots: true
	// cached repeat skips admission: true
}

// CompileWithResult is Compile plus the request's structured telemetry:
// stage wall times, cache routes, the admission weight and the
// search-space counters. The stages are disjoint
// phases of the wall, so their sum never exceeds it, and a repeat of
// the same model answers entirely from the plan cache.
func ExampleCompiler_CompileWithResult() {
	c, err := t10.New(device.IPUMK2(), t10.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	cold, err := c.CompileWithResult(context.Background(), models.BERT(1))
	if err != nil {
		log.Fatal(err)
	}
	tel := cold.Telemetry
	fmt.Println("stages within wall:", tel.StageSum() <= tel.Wall)
	fmt.Println("cold ops enumerated:", tel.RouteCold > 0 && tel.Priced > 0)

	warm, err := c.CompileWithResult(context.Background(), models.BERT(1))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("repeat served from cache:", warm.Telemetry.RouteCold == 0 && warm.Telemetry.RouteMemory > 0)
	// Output:
	// stages within wall: true
	// cold ops enumerated: true
	// repeat served from cache: true
}

// Search is the single-operator entry point: the intra-operator Pareto
// search (§4.3.1), answering from the plan cache when warm.
func ExampleCompiler_Search() {
	c, err := t10.New(device.IPUMK2(), t10.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	r, err := c.Search(context.Background(), expr.MatMul("ffn", 1024, 1024, 4096, dtype.FP16))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("found a trade-off frontier:", len(r.Pareto) > 1)
	// Output:
	// found a trade-off frontier: true
}

// Custom cost functions are construction-scoped: the registration set
// is fixed at New (and covered by the plan-cache fingerprint), so the
// compiler is immutable and cache keys can never go stale.
func ExampleWithCostFunc() {
	spec := device.IPUMK2()
	c, err := t10.New(spec, t10.DefaultOptions(),
		t10.WithCostFunc("fused", func(t kernel.Task) float64 {
			macs := float64(t.M) * float64(t.N) * float64(t.K)
			return 2000 + macs/48/spec.ClockGHz
		}))
	if err != nil {
		log.Fatal(err)
	}
	r, err := c.Search(context.Background(), expr.MatMul("fused", 512, 512, 512, dtype.FP16))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("plans priced by the custom kernel model:", len(r.Pareto) > 0)
	// Output:
	// plans priced by the custom kernel model: true
}

// Calibration closes the loop between the learned cost model and the
// simulator's measurements. A compiler built over a SampleRing taps
// every cold search — one (kernel task, measured time) sample per
// Pareto survivor — and a rebuild over the filled ring refits the
// model on those samples. The fit is construction-scoped like every
// other cost-model change: it joins the plan-cache fingerprint, so a
// refit compiler never answers from the old fit's records.
func ExampleWithCalibration() {
	ring := costmodel.NewSampleRing(costmodel.DefaultRingSize)
	boot, err := t10.New(device.IPUMK2(), t10.DefaultOptions(),
		t10.WithCalibration(ring, 0)) // version 0: auto-assign
	if err != nil {
		log.Fatal(err)
	}
	// an empty ring means the boot compiler prices with the shipped fit
	_, calibrated := boot.Calibration()
	fmt.Println("boot compiler calibrated:", calibrated)

	// cold searches feed the ring through the sample tap
	if _, err := boot.Search(context.Background(), expr.MatMul("ffn", 1024, 1024, 4096, dtype.FP16)); err != nil {
		log.Fatal(err)
	}
	fmt.Println("samples collected:", ring.Total() > 0)

	// rebuilding over the filled ring refits and deploys a new fit;
	// a serving loop does this swap atomically (see cmd/t10serve)
	refit, err := t10.New(device.IPUMK2(), t10.DefaultOptions(),
		t10.WithCalibration(ring, 0))
	if err != nil {
		log.Fatal(err)
	}
	cal, calibrated := refit.Calibration()
	fmt.Println("refit compiler calibrated:", calibrated, "version:", cal.Version)
	// Output:
	// boot compiler calibrated: false
	// samples collected: true
	// refit compiler calibrated: true version: 1
}

// Operator fusion is construction-scoped for the same reason: the rule
// set joins the plan-cache fingerprint, so fused and unfused compiles
// never answer each other from cache. With DefaultRules a
// MatMul → bias → activation chain folds into one composed operator:
// the search prices it as a single kernel (epilogue arithmetic
// included), reconciliation sees one boundary instead of three, and
// the telemetry reports the group that was formed. Fusion is off
// unless WithFusion is given.
func ExampleWithFusion() {
	c, err := t10.New(device.IPUMK2(), t10.DefaultOptions(),
		t10.WithFusion(graph.DefaultRules()))
	if err != nil {
		log.Fatal(err)
	}
	m := &graph.Model{Name: "ffn-cell", BatchSize: 1, Ops: []graph.Op{
		{
			Name:         "proj",
			Expr:         expr.MatMul("proj", 128, 256, 64, dtype.FP16),
			WeightInputs: []int{1},
			Sources:      []int{graph.External, graph.External},
		},
		{
			Name:    "bias",
			Expr:    expr.EltwiseBinary("bias", 128, 64, dtype.FP16),
			Sources: []int{0, graph.External},
		},
		{
			Name:    "gelu",
			Expr:    expr.Elementwise("gelu", 128, 64, 8, dtype.FP16),
			Sources: []int{1},
		},
	}}
	cr, err := c.CompileWithResult(context.Background(), m)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("ops after fusion:", len(cr.Executable.Model.Ops))
	fmt.Println("groups formed:", cr.Executable.Fusion.GroupCount())
	fmt.Println("source ops folded:", cr.Telemetry.FusedOps)
	// Output:
	// ops after fusion: 1
	// groups formed: 1
	// source ops folded: 3
}

// CompileSharded scales a model past one chip: the graph is partitioned
// across N chips of the device generation — pipeline cuts between
// operators, tensor-parallel row splits within a stage — with each
// stage compiled by the ordinary single-chip pipeline and the
// inter-chip activations priced from the generation's Interconnect
// descriptor. Selection is by simulation over a candidate set that
// always includes the whole model on one chip, so sharding can never
// lose to not sharding.
func ExampleCompiler_CompileSharded() {
	c, err := t10.New(device.IPUMK2(), t10.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	m := models.BERT(1)
	se, err := c.CompileSharded(context.Background(), m, 2,
		t10.WithPipelineMicrobatches(4))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("stages cover the model:", len(se.Stages) >= 1)
	fmt.Println("within the chip budget:", se.Chips() <= 2)

	plain, err := c.Compile(context.Background(), m)
	if err != nil {
		log.Fatal(err)
	}
	rep := se.Simulate()
	fmt.Println("no worse than one chip:", rep.TotalNs <= plain.Simulate().TotalNs)
	// Output:
	// stages cover the model: true
	// within the chip budget: true
	// no worse than one chip: true
}

// EstimateCost prices a request without compiling it — cache probes
// plus rule-filtered space sizes, no search. It is the price a shared
// pool charges the same request at admission (Options.SharedPool), so
// a caller can read it ahead, e.g. to route or defer heavy work.
func ExampleCompiler_EstimateCost() {
	c, err := t10.New(device.IPUMK2(), t10.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	m := models.BERT(1)
	cold, err := c.EstimateCost(m)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("cold model needs search work:", cold.ColdOps > 0 && cold.Weight(8) > 1)

	if _, err := c.Compile(context.Background(), m); err != nil {
		log.Fatal(err)
	}
	warm, err := c.EstimateCost(models.BERT(1))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("compiled model is a free probe:", warm.ColdOps == 0 && warm.Weight(8) == 0)
	// Output:
	// cold model needs search work: true
	// compiled model is a free probe: true
}
