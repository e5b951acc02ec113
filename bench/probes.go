package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"

	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/device"
	"repro/internal/dtype"
	"repro/internal/expr"
	"repro/internal/graph"
	"repro/internal/interop"
	"repro/internal/kernel"
	"repro/internal/models"
	"repro/internal/plancache"
	"repro/internal/search"
	"repro/internal/sema"
	"repro/internal/sim"
	"repro/t10"
)

// Layer probes: direct calls into the layers under a "probe" root span,
// on the inputs the workloads produce — the operators, plans and disk
// records of M5, of the sharded prefill graph, and of the workload's
// own operator set — not on synthetic ones. Every value is read back
// from the spans, so the trace file explains each number.

// distinctOps returns the operators of the models, then extra, in
// first-appearance order, one per shape signature: the unit of search
// and cache work.
func distinctOps(ms []*graph.Model, extra ...*expr.Expr) []*expr.Expr {
	var out []*expr.Expr
	seen := map[string]bool{}
	add := func(e *expr.Expr) {
		if sig := e.Signature(); !seen[sig] {
			seen[sig] = true
			out = append(out, e)
		}
	}
	for _, m := range ms {
		for i := range m.Ops {
			add(m.Ops[i].Expr)
		}
	}
	for _, e := range extra {
		add(e)
	}
	return out
}

// opSet is the operator set a workload's search and core probes run on.
type opSet struct {
	spec *device.Spec
	ops  []*expr.Expr
}

// serveColdSample is how many of the seed's cold_op shapes join
// serve_mix's operator set.
const serveColdSample = 8

func opSetOf(name string, w workload) (opSet, error) {
	switch w := w.(type) {
	case *bigcoreWorkload:
		return opSet{w.spec, bigcoreOps()}, nil
	case *shardedWorkload:
		return opSet{w.spec, distinctOps([]*graph.Model{w.model})}, nil
	case *serveWorkload:
		m, err := models.Build(probeModel, probeModelBatch)
		if err != nil {
			return opSet{}, err
		}
		extra := []*expr.Expr{matmulOf("probe", probeOpShape)}
		for i := 0; i < serveColdSample && i < len(w.cold); i++ {
			extra = append(extra, matmulOf("cold", w.cold[i]))
		}
		return opSet{w.spec, distinctOps([]*graph.Model{m}, extra...)}, nil
	case *modelsWorkload:
		return opSet{w.spec, distinctOps(w.models)}, nil
	}
	return opSet{}, fmt.Errorf("no operator set for workload %s", name)
}

// prober carries the probe suite's state.
type prober struct {
	env  *env
	tr   *tracer
	reps probeReps
	root int
	out  map[string]float64
}

// probeReps are the repetition counts of the probes: enough calls per
// span that the clock's resolution and the span's own cost vanish, few
// enough that a traced run stays within seconds.
type probeReps struct {
	fast  int // sub-microsecond calls
	micro int // microsecond-scale calls
	milli int // millisecond-scale calls
}

var (
	fullReps  = probeReps{fast: 200, micro: 20, milli: 3}
	smokeReps = probeReps{fast: 2, micro: 1, milli: 1}
)

func (p *prober) us(name, spanName string) { p.out[name] = p.tr.meanNs(spanName) / 1e3 }
func (p *prober) ms(name, spanName string) { p.out[name] = p.tr.meanNs(spanName) / 1e6 }

func runProbes(ctx context.Context, e *env, tr *tracer, reps probeReps, name string, w workload) (map[string]float64, error) {
	p := &prober{env: e, tr: tr, reps: reps, out: map[string]float64{}}
	p.root = tr.begin("probe", -1, -1)
	defer tr.end(p.root)

	ms, err := p.graphLayer()
	if err != nil {
		return nil, err
	}
	if err := p.compileLayers(ctx, ms); err != nil {
		return nil, err
	}
	set, err := opSetOf(name, w)
	if err != nil {
		return nil, err
	}
	if err := p.searchLayers(ctx, set); err != nil {
		return nil, err
	}
	if err := p.shardedLayers(ctx, ms[m5Prefill]); err != nil {
		return nil, err
	}
	p.semaLayer(ctx)
	return p.out, nil
}

// graphLayer: models.Build, Model.Validate, graph.Fuse per M5 model.
func (p *prober) graphLayer() ([]*graph.Model, error) {
	ms, err := buildM5()
	if err != nil {
		return nil, err
	}
	groups := 0
	for i, n := range m5Names {
		p.tr.timeN(p.root, "models.Build", p.reps.micro, func() { models.Build(n, m5Batch) })
		p.tr.timeN(p.root, "graph.Validate", p.reps.micro, func() { ms[i].Validate() })
		var fg *graph.FusedGraph
		p.tr.timeN(p.root, "graph.Fuse", p.reps.micro, func() { fg, err = graph.Fuse(ms[i], graph.DefaultRules()) })
		if err != nil {
			return nil, fmt.Errorf("fuse %s: %w", n, err)
		}
		groups += fg.GroupCount()
	}
	p.us("models.build_us", "models.Build")
	p.us("graph.validate_us", "graph.Validate")
	p.us("graph.fuse_us", "graph.Fuse")
	p.out["graph.fused_groups"] = float64(groups)
	return ms, nil
}

// compileLayers: t10.New, costmodel.NewSet, the per-model cold and warm
// compiles, EstimateCost, and — on the executables those compiles
// produced — interop.Reconcile, codegen.Lower, sim.Run, Simulate and
// Predictor.Predict.
func (p *prober) compileLayers(ctx context.Context, ms []*graph.Model) error {
	spec := device.IPUMK2()
	p.tr.timeN(p.root, "costmodel.NewSet", p.reps.micro, func() { costmodel.NewSet(spec) })
	p.ms("costmodel.newset_ms", "costmodel.NewSet")

	var c *t10.Compiler
	var err error
	exes := make([]*t10.Executable, len(ms))
	for rep := 0; rep < p.reps.milli; rep++ {
		p.tr.timeN(p.root, "t10.New", 1, func() { c, err = newCompiler(p.env, spec, "") })
		if err != nil {
			return err
		}
		for i, m := range ms {
			sp := p.tr.begin("compile_cold."+m5Keys[i], p.root, -1)
			exes[i], err = c.Compile(ctx, m)
			p.tr.end(sp)
			if err != nil {
				return fmt.Errorf("cold compile of %s: %w", m.Name, err)
			}
		}
	}
	p.ms("t10.new_ms", "t10.New")
	for _, k := range m5Keys {
		p.out["t10.compile_cold_ms."+k] = median(p.tr.perCallNs("compile_cold."+k)) / 1e6
	}

	var reconcile []float64
	for i, m := range ms {
		p.tr.timeN(p.root, "compile_warm", p.reps.micro, func() { c.Compile(ctx, m) })
		p.tr.timeN(p.root, "t10.EstimateCost", p.reps.micro, func() { c.EstimateCost(m) })
		exe := exes[i]
		name := "interop.Reconcile." + m5Keys[i]
		p.tr.timeN(p.root, name, p.reps.micro, func() {
			interop.Reconcile(spec, exe.Plans, int64(spec.CoreMemBytes))
		})
		reconcile = append(reconcile, p.tr.meanNs(name))
		p.tr.timeN(p.root, "Executable.Simulate", p.reps.milli, func() { exe.Simulate() })

		var tasks []kernel.Task
		var preds []costmodel.Predictor
		for j := range exe.Schedule.Assignments {
			plan := exe.Schedule.Assignments[j].Active.Plan
			var prog *sim.Program
			p.tr.timeN(p.root, "codegen.Lower", 1, func() { prog, err = codegen.Lower(spec, plan) })
			if err != nil {
				return fmt.Errorf("lower %s/%s: %w", m.Name, plan.Expr.Name, err)
			}
			p.tr.timeN(p.root, "sim.Run", p.reps.micro, func() { sim.Run(spec, prog) })
			tasks = append(tasks, plan.KernelTask())
			preds = append(preds, c.CM.Resolve(plan.Expr.Name, plan.Expr.Kind))
		}
		sp := p.tr.begin("Predictor.Predict", p.root, -1)
		for r := 0; r < p.reps.fast; r++ {
			for j := range tasks {
				preds[j].Predict(tasks[j])
			}
		}
		p.tr.endN(sp, p.reps.fast*len(tasks))
	}
	p.us("t10.compile_warm_us", "compile_warm")
	p.us("t10.estimate_cost_us", "t10.EstimateCost")
	p.out["interop.reconcile_us"] = geomean(reconcile) / 1e3
	p.us("t10.simulate_us", "Executable.Simulate")
	p.us("codegen.lower_us", "codegen.Lower")
	p.us("sim.run_us", "sim.Run")
	p.out["costmodel.predict_ns"] = p.tr.meanNs("Predictor.Predict")
	return nil
}

// newSearcher builds the sequential reference searcher the counts are
// taken on; dir adds a signed disk layer.
func newSearcher(spec *device.Spec, dir string) (*search.Searcher, error) {
	cm, err := costmodel.NewSet(spec)
	if err != nil {
		return nil, err
	}
	s := search.New(spec, cm, search.DefaultConstraints(), core.DefaultConfig())
	s.Workers = 1
	if dir != "" {
		s.SetCache(plancache.New(plancache.Options{Dir: dir, Salt: []byte(cacheSalt)}))
	}
	return s, nil
}

// spaceCounts are the search counters that must repeat exactly at
// Workers=1.
type spaceCounts struct {
	filtered, priced, pruned, seeded, cutSubtrees, cutLeaves, pareto, truncated int
	digest                                                                      uint64
}

// coldPass searches every operator cold on a fresh sequential searcher
// writing to dir.
func (p *prober) coldPass(ctx context.Context, set opSet, dir, spanName string) (*search.Searcher, []*search.Result, spaceCounts, error) {
	var sc spaceCounts
	s, err := newSearcher(set.spec, dir)
	if err != nil {
		return nil, nil, sc, err
	}
	results := make([]*search.Result, len(set.ops))
	d := newDigest()
	for i, e := range set.ops {
		sp := p.tr.begin(spanName, p.root, -1)
		r, err := s.SearchOpCtx(ctx, e)
		p.tr.end(sp)
		if err != nil {
			return nil, nil, sc, fmt.Errorf("cold search of %s: %w", e.Name, err)
		}
		results[i] = r
		sc.filtered += r.Spaces.Filtered
		sc.priced += r.Spaces.Priced
		sc.pruned += r.Spaces.Pruned
		sc.seeded += r.Spaces.Seeded
		sc.cutSubtrees += r.Spaces.CutSubtrees
		sc.cutLeaves += r.Spaces.CutLeaves
		sc.pareto += len(r.Pareto)
		sc.truncated += r.Spaces.TruncatedFtCombos
		d.word(resultDigest(r))
	}
	sc.digest = uint64(d)
	return s, results, sc, nil
}

// searchLayers: the cold, memory and disk routes of Searcher.SearchOpCtx
// on the workload's operator set, the plancache calls underneath them on
// the records the cold pass wrote, and the core plan algebra on the
// Pareto plans it found.
func (p *prober) searchLayers(ctx context.Context, set opSet) error {
	// A and B receive the records of the two cold passes, C their rewrite
	var dirs [3]string
	for i := range dirs {
		d, err := p.env.mkTemp("probe-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(d)
		dirs[i] = d
	}
	dirA, dirB, dirC := dirs[0], dirs[1], dirs[2]
	s, results, sc, err := p.coldPass(ctx, set, dirA, "search.cold_op")
	if err != nil {
		return err
	}
	// the same requests evaluated a second time must count the same
	_, _, again, err := p.coldPass(ctx, set, dirB, "search.cold_op.again")
	if err != nil {
		return err
	}
	if sc != again {
		return fmt.Errorf("search counters do not repeat at Workers=1: %+v vs %+v", sc, again)
	}
	sizesA, err := recordSizes(dirA)
	if err != nil {
		return err
	}
	sizesB, err := recordSizes(dirB)
	if err != nil {
		return err
	}
	if len(sizesA) == 0 || !reflect.DeepEqual(sizesA, sizesB) {
		return fmt.Errorf("the two evaluations wrote different records: %v vs %v", sizesA, sizesB)
	}
	p.ms("search.cold_op_ms", "search.cold_op")
	p.out["search.filtered"] = float64(sc.filtered)
	p.out["search.priced"] = float64(sc.priced)
	p.out["search.pruned"] = float64(sc.pruned)
	p.out["search.seeded"] = float64(sc.seeded)
	p.out["search.cut_subtrees"] = float64(sc.cutSubtrees)
	p.out["search.cut_leaves"] = float64(sc.cutLeaves)
	p.out["search.pareto"] = float64(sc.pareto)
	p.out["search.truncated_ft_combos"] = float64(sc.truncated)
	p.out["search.pareto_per_priced"] = float64(sc.pareto) / float64(sc.priced+sc.seeded)

	for _, e := range set.ops {
		p.tr.timeN(p.root, "Searcher.Cached", p.reps.micro, func() { s.Cached(e) })
		p.tr.timeN(p.root, "search.warm_op", p.reps.micro, func() { s.SearchOpCtx(ctx, e) })
		p.tr.timeN(p.root, "Expr.Signature", p.reps.micro, func() { e.Signature() })
	}
	p.us("search.cached_probe_us", "Searcher.Cached")
	p.us("search.warm_op_us", "search.warm_op")
	p.us("expr.signature_us", "Expr.Signature")

	// disk route: a fresh searcher per repetition over the records of dirA
	for rep := 0; rep < p.reps.milli; rep++ {
		sd, err := newSearcher(set.spec, dirA)
		if err != nil {
			return err
		}
		for i, e := range set.ops {
			sp := p.tr.begin("search.disk_op", p.root, -1)
			r, err := sd.SearchOpCtx(ctx, e)
			p.tr.end(sp)
			if err != nil {
				return err
			}
			if resultDigest(r) != resultDigest(results[i]) {
				return fmt.Errorf("disk answer for %s differs from the cold one", e.Name)
			}
		}
		if st := sd.Cache().Stats(); st.DiskHits != int64(len(set.ops)) || st.DiskRejects != 0 {
			return fmt.Errorf("disk pass: %d hits, %d rejects for %d operators", st.DiskHits, st.DiskRejects, len(set.ops))
		}
	}
	p.us("search.disk_op_us", "search.disk_op")

	if err := p.cacheLayer(s.Cache(), dirA, dirC); err != nil {
		return err
	}
	p.coreLayer(set, s.CM, results)
	return nil
}

// cacheLayer times plancache's four calls on the real keys, values and
// sealed records of the cold pass: mem is the cache that pass filled,
// dirA holds its records and rewriteDir receives them again.
func (p *prober) cacheLayer(mem *plancache.Cache, dirA, rewriteDir string) error {
	names, err := filepath.Glob(filepath.Join(dirA, "*.json"))
	if err != nil || len(names) == 0 {
		return fmt.Errorf("no plan records under %s: %v", dirA, err)
	}
	disk := plancache.New(plancache.Options{Dir: dirA, Salt: []byte(cacheSalt)})
	rewrite := plancache.New(plancache.Options{Dir: rewriteDir, Salt: []byte(cacheSalt)})
	fresh := plancache.New(plancache.Options{})
	var sizes []float64
	for _, path := range names {
		k, ok := plancache.ParseKey(strings.TrimSuffix(filepath.Base(path), ".json"))
		if !ok {
			return fmt.Errorf("record %s is not named by its key", path)
		}
		n, err := recordBytes(path)
		if err != nil {
			return err
		}
		sizes = append(sizes, float64(n))

		var v any
		p.tr.timeN(p.root, "Cache.Get", p.reps.fast, func() { v, ok = mem.Get(k) })
		if !ok {
			return fmt.Errorf("record %s has no in-memory entry", k)
		}
		p.tr.timeN(p.root, "Cache.Put", p.reps.fast, func() { fresh.Put(k, v) })
		var payload []byte
		p.tr.timeN(p.root, "Cache.GetBlob", p.reps.milli, func() { payload, ok = disk.GetBlob(k) })
		if !ok {
			return fmt.Errorf("record %s failed its provenance check", k)
		}
		p.tr.timeN(p.root, "Cache.PutBlob", p.reps.milli, func() { err = rewrite.PutBlob(k, payload) })
		if err != nil {
			return fmt.Errorf("rewrite of record %s: %w", k, err)
		}
	}
	p.us("plancache.mem_get_us", "Cache.Get")
	p.us("plancache.put_us", "Cache.Put")
	p.us("plancache.disk_get_us", "Cache.GetBlob")
	p.us("plancache.disk_put_us", "Cache.PutBlob")
	p.out["plancache.record_bytes"] = mean(sizes)

	return nil
}

// recordSizes maps every record under dir to its recordBytes.
func recordSizes(dir string) (map[string]int, error) {
	names, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	out := make(map[string]int, len(names))
	for _, path := range names {
		if out[filepath.Base(path)], err = recordBytes(path); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// recordBytes is the size of a sealed record without the digits of its
// elapsed_ns field — the one clock reading a record carries, which
// would otherwise make the size differ from run to run.
func recordBytes(path string) (int, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	var env struct {
		Payload struct {
			ElapsedNs int64 `json:"elapsed_ns"`
		} `json:"payload"`
	}
	if err := json.Unmarshal(raw, &env); err != nil {
		return 0, fmt.Errorf("%s: %w", path, err)
	}
	clock := []byte(`"elapsed_ns":` + strconv.FormatInt(env.Payload.ElapsedNs, 10))
	if !bytes.Contains(raw, clock) {
		return 0, fmt.Errorf("%s: no elapsed_ns field to discount", path)
	}
	return len(raw) - len(clock) + len(`"elapsed_ns":`), nil
}

// coreMaxPlans bounds the plans the core probes visit per run.
const coreMaxPlans = 1500

// coreLayer: PlanSketch.Compute / LowerBoundNs, Begin/Fix/Unfix,
// NewPlan and EstimateWith over the Pareto plans of the operator set.
func (p *prober) coreLayer(set opSet, cm *costmodel.Set, results []*search.Result) {
	cfg := core.DefaultConfig()
	visited := 0
	for i, e := range set.ops {
		pred := cm.Resolve(e.Name, e.Kind)
		ps := core.NewPlanSketch(e, cfg)
		for j := range results[i].Pareto {
			if visited++; visited > coreMaxPlans {
				break
			}
			plan := results[i].Pareto[j].Plan
			fts := make([][]int, len(plan.Tensors))
			for ti := range plan.Tensors {
				fts[ti] = plan.Tensors[ti].Ft
			}
			p.tr.timeN(p.root, "PlanSketch.Compute", p.reps.micro, func() { ps.Compute(plan.Fop, fts) })
			p.tr.timeN(p.root, "PlanSketch.LowerBoundNs", p.reps.micro, func() { ps.LowerBoundNs(set.spec, pred) })
			p.tr.timeN(p.root, "PlanSketch.BeginFixUnfix", p.reps.micro, func() {
				if !ps.Begin(plan.Fop) {
					return
				}
				fixed := 0
				for _, ft := range fts {
					if !ps.Fix(ft) {
						break
					}
					fixed++
				}
				for ; fixed > 0; fixed-- {
					ps.Unfix()
				}
			})
			var np *core.Plan
			p.tr.timeN(p.root, "core.NewPlan", p.reps.micro, func() { np, _ = core.NewPlan(e, plan.Fop, fts, cfg) })
			if np != nil {
				p.tr.timeN(p.root, "Plan.EstimateWith", p.reps.micro, func() { np.EstimateWith(set.spec, pred) })
			}
		}
	}
	p.us("core.sketch_us", "PlanSketch.Compute")
	p.us("core.sketch_lb_us", "PlanSketch.LowerBoundNs")
	p.us("core.partial_fix_us", "PlanSketch.BeginFixUnfix")
	p.us("core.newplan_us", "core.NewPlan")
	p.us("core.estimate_us", "Plan.EstimateWith")
}

// shardedLayers: the partition search counters of a cold sharded
// compile per chip count, and a second compile on the same compiler —
// every operator search cached, so what is left is partition search,
// reconciliation and simulation.
func (p *prober) shardedLayers(ctx context.Context, m *graph.Model) error {
	enumerated, infeasible, stageCold := 0, 0, 0
	for _, chips := range shardChips {
		opts := t10.DefaultOptions()
		opts.Workers = 1
		c, err := t10.New(device.IPUMK2(), opts)
		if err != nil {
			return err
		}
		compile := func(span string) (*t10.ShardedResult, error) {
			sp := p.tr.begin(span, p.root, -1)
			sr, err := c.CompileShardedWithResult(ctx, m, chips, t10.WithPipelineMicrobatches(shardMicrobatches))
			p.tr.end(sp)
			return sr, err
		}
		cold, err := compile(fmt.Sprintf("sharded_cold.c%d", chips))
		if err != nil {
			return err
		}
		warm, err := compile(fmt.Sprintf("sharded_warm.c%d", chips))
		if err != nil {
			return err
		}
		if cold.Search.Enumerated != warm.Search.Enumerated || cold.Search.Infeasible != warm.Search.Infeasible ||
			shardedDigest(cold.Executable) != shardedDigest(warm.Executable) {
			return fmt.Errorf("%d chips: two evaluations of the partition search disagree", chips)
		}
		enumerated += cold.Search.Enumerated
		infeasible += cold.Search.Infeasible
		stageCold += cold.Telemetry.RouteCold
	}
	p.out["scaleout.enumerated"] = float64(enumerated)
	p.out["scaleout.infeasible"] = float64(infeasible)
	p.out["t10.sharded_stage_cold"] = float64(stageCold)
	p.ms("t10.sharded_warm_ms.c2", "sharded_warm.c2")
	p.ms("t10.sharded_warm_ms.c4", "sharded_warm.c4")
	return nil
}

// semaLayer: an uncontended admission on a shared budget.
func (p *prober) semaLayer(ctx context.Context) {
	s := sema.NewShared(workers, serveQueue)
	p.tr.timeN(p.root, "Sem.AcquireWaitRelease", 50*p.reps.fast, func() {
		s.AcquireWait(ctx, 1)
		s.Release(1)
	})
	p.out["sema.acquire_ns"] = p.tr.meanNs("Sem.AcquireWaitRelease")
}

func matmulOf(name string, s [3]int) *expr.Expr {
	return expr.MatMul(name, s[0], s[1], s[2], dtype.FP16)
}
