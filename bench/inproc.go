package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"repro/internal/device"
	"repro/internal/dtype"
	"repro/internal/expr"
	"repro/internal/graph"
	"repro/internal/models"
	"repro/internal/plancache"
	"repro/internal/search"
	"repro/t10"
)

// m5Names is the model set every model workload compiles, at m5Batch:
// two encoders, a CNN and both halves of LLM serving, so the five
// request classes differ in operator mix and in cold cost by 30×.
var m5Names = [...]string{"BERT", "ViT", "ResNet", "OPT-1.3B-prefill", "OPT-1.3B-decode"}

const (
	m5Batch   = 8
	m5Prefill = 3 // index of the prefill graph sharded_prefill partitions
)

func buildM5() ([]*graph.Model, error) {
	ms := make([]*graph.Model, len(m5Names))
	for i, n := range m5Names {
		m, err := models.Build(n, m5Batch)
		if err != nil {
			return nil, err
		}
		ms[i] = m
	}
	return ms, nil
}

func m5Classes() []class {
	cs := make([]class, len(m5Keys))
	for i, k := range m5Keys {
		cs[i] = class{k, 1}
	}
	return cs
}

// inproc is what the five in-process workloads share: one client, no
// child, a schedule, and the cache counters of every compiler they
// discarded plus the live one.
type inproc struct {
	env   *env
	spec  *device.Spec
	sched []uint8
	cur   *t10.Compiler
	acc   plancache.Stats
}

func (p *inproc) schedule() []uint8       { return p.sched }
func (p *inproc) clients() int            { return 1 }
func (p *inproc) childCPU() time.Duration { return 0 }
func (p *inproc) peakRSSMB() float64      { return selfPeakRSSMB() }

func (p *inproc) settle(*tracer) (int, error) { return 0, nil }

func (p *inproc) teardown() { p.retire() }

// retire drops the live compiler, keeping its cache counters.
func (p *inproc) retire() {
	if p.cur != nil {
		addCache(&p.acc, p.cur.CacheStats(), +1)
		p.cur = nil
	}
}

// fresh replaces the live compiler with a new one.
func (p *inproc) fresh(cacheDir string) error {
	p.retire()
	c, err := newCompiler(p.env, p.spec, cacheDir)
	p.cur = c
	return err
}

func (p *inproc) counters() (counters, error) {
	c := counters{cache: p.acc}
	if p.cur != nil {
		addCache(&c.cache, p.cur.CacheStats(), +1)
	}
	return c, nil
}

// telemetryStages turns a request's telemetry into child spans of the
// call that produced it.
func telemetryStages(tr *tracer, call int, tel *t10.Telemetry) {
	tr.addStages(call,
		stage{"stage.admission_wait", tel.AdmissionWait},
		stage{"stage.cold_search", tel.ColdSearch},
		stage{"stage.cache_probe", tel.CacheProbe},
		stage{"stage.reconcile", tel.Reconcile})
}

// route is which cache tier must answer every operator search of a
// workload's operations.
type route int

const (
	routeCold route = iota
	routeMemory
	routeDisk
)

// checkRoutes fails when any operator search of the request was
// answered by another tier than want, or the stages outgrew the wall.
func checkRoutes(tel *t10.Telemetry, want route) error {
	got := [...]int{routeCold: tel.RouteCold, routeMemory: tel.RouteMemory, routeDisk: tel.RouteDisk}
	for r, n := range got {
		if (route(r) == want) != (n > 0) {
			return fmt.Errorf("routes cold=%d memory=%d disk=%d, want only route %d",
				tel.RouteCold, tel.RouteMemory, tel.RouteDisk, want)
		}
	}
	if tel.RouteRemote != 0 || tel.RouteFlightWait != 0 {
		return fmt.Errorf("unexpected remote/singleflight routes %d/%d", tel.RouteRemote, tel.RouteFlightWait)
	}
	if tel.StageSum() > tel.Wall {
		return fmt.Errorf("stage sum %v exceeds wall %v", tel.StageSum(), tel.Wall)
	}
	return nil
}

// ---- cold_models / warm_models / restart_models -----------------------

// modelsWorkload compiles M5 through one of the three cache routes.
type modelsWorkload struct {
	inproc
	want     route
	models   []*graph.Model
	cacheDir string // restart_models only
	ref      []*t10.Executable
	refSum   []uint64
	last     []*t10.Executable
}

func newModelsWorkload(e *env, want route) *modelsWorkload {
	return &modelsWorkload{inproc: inproc{env: e, spec: device.IPUMK2()}, want: want}
}

func (w *modelsWorkload) classes() []class { return m5Classes() }

// maxRate bounds how many operations a second the schedule must cover.
func (w *modelsWorkload) maxRate() float64 {
	if w.want == routeCold {
		return 400
	}
	return 40000
}

func (w *modelsWorkload) setup(ctx context.Context, seed int64, blocks int) error {
	w.sched = genSchedule(seed, w.classes(), blocks)
	var err error
	if w.models, err = buildM5(); err != nil {
		return err
	}
	if w.want == routeDisk {
		if w.cacheDir, err = w.env.mkTemp("restart-"); err != nil {
			return err
		}
	}
	if err := w.fresh(w.cacheDir); err != nil {
		return err
	}
	// The cold pass over the distinct requests is the reference every
	// timed answer is compared with, the warm-up of warm_models and what
	// writes restart_models' records.
	w.ref = make([]*t10.Executable, len(w.models))
	w.refSum = make([]uint64, len(w.models))
	w.last = make([]*t10.Executable, len(w.models))
	for i, m := range w.models {
		cr, err := w.cur.CompileWithResult(ctx, m)
		if err != nil {
			return fmt.Errorf("reference compile of %s: %w", m.Name, err)
		}
		if err := checkRoutes(&cr.Telemetry, routeCold); err != nil {
			return fmt.Errorf("reference compile of %s: %w", m.Name, err)
		}
		w.ref[i], w.refSum[i] = cr.Executable, exeDigest(cr.Executable)
	}
	if w.want == routeDisk {
		// warm-up pass on the route the timed operations take
		for i := range w.models {
			if _, _, err := w.do(ctx, i, i, nil, -1); err != nil {
				return err
			}
		}
	}
	return nil
}

func (w *modelsWorkload) teardown() {
	w.inproc.teardown()
	if w.cacheDir != "" {
		os.RemoveAll(w.cacheDir)
		w.cacheDir = ""
	}
}

func (w *modelsWorkload) prepare(i int) error {
	if w.want == routeCold && i%len(w.models) == 0 {
		return w.fresh("")
	}
	return nil
}

func (w *modelsWorkload) do(ctx context.Context, i, cls int, tr *tracer, parent int) (any, time.Duration, error) {
	t0 := time.Now()
	if w.want == routeDisk {
		// a restarted process pays construction before its first compile
		sp := tr.begin("t10.New", parent, i)
		err := w.fresh(w.cacheDir)
		tr.end(sp)
		if err != nil {
			return nil, 0, err
		}
	}
	sp := tr.begin("t10.CompileWithResult", parent, i)
	cr, err := w.cur.CompileWithResult(ctx, w.models[cls])
	tr.end(sp)
	d := time.Since(t0)
	if err != nil {
		return nil, d, err
	}
	telemetryStages(tr, sp, &cr.Telemetry)
	return cr, d, nil
}

func (w *modelsWorkload) check(cls int, res any) error {
	cr := res.(*t10.CompileResult)
	if err := checkRoutes(&cr.Telemetry, w.want); err != nil {
		return err
	}
	if got := exeDigest(cr.Executable); got != w.refSum[cls] {
		return fmt.Errorf("plan digest %x differs from the cold reference %x", got, w.refSum[cls])
	}
	w.last[cls] = cr.Executable
	return nil
}

func (w *modelsWorkload) verify(context.Context) (float64, float64, error) {
	var lat, mem float64
	for i, exe := range w.ref {
		rep := exe.Simulate()
		if rep.MemPeakPerCore > int64(w.spec.CoreMemBytes) {
			return 0, 0, fmt.Errorf("%s: selected plans peak at %d bytes/core, core has %d",
				w.models[i].Name, rep.MemPeakPerCore, w.spec.CoreMemBytes)
		}
		if l := w.last[i]; l != nil {
			if again := l.Simulate(); again.TotalNs != rep.TotalNs || again.MemPeakPerCore != rep.MemPeakPerCore {
				return 0, 0, fmt.Errorf("%s: two evaluations disagree: %v/%d vs %v/%d", w.models[i].Name,
					rep.TotalNs, rep.MemPeakPerCore, again.TotalNs, again.MemPeakPerCore)
			}
		}
		lat += rep.LatencyMs()
		if pct := 100 * float64(rep.MemPeakPerCore) / float64(w.spec.CoreMemBytes); pct > mem {
			mem = pct
		}
	}
	return lat, mem, nil
}

// ---- sharded_prefill ---------------------------------------------------

var shardChips = [...]int{1, 2, 4}

const shardMicrobatches = 4

// shardedWorkload partitions the prefill graph over 1, 2 and 4 chips,
// each on a fresh compiler.
type shardedWorkload struct {
	inproc
	model  *graph.Model
	ref    []*t10.ShardedExecutable
	refSum []uint64
	last   []*t10.ShardedExecutable
}

func newShardedWorkload(e *env) *shardedWorkload {
	return &shardedWorkload{inproc: inproc{env: e, spec: device.IPUMK2()}}
}

func (w *shardedWorkload) classes() []class {
	return []class{{"chips1", 1}, {"chips2", 1}, {"chips4", 1}}
}
func (w *shardedWorkload) maxRate() float64 { return 400 }

func (w *shardedWorkload) compile(ctx context.Context, cls int) (*t10.ShardedResult, error) {
	return w.cur.CompileShardedWithResult(ctx, w.model, shardChips[cls],
		t10.WithPipelineMicrobatches(shardMicrobatches))
}

func (w *shardedWorkload) setup(ctx context.Context, seed int64, blocks int) error {
	w.sched = genSchedule(seed, w.classes(), blocks)
	var err error
	if w.model, err = models.Build(m5Names[m5Prefill], m5Batch); err != nil {
		return err
	}
	n := len(shardChips)
	w.ref = make([]*t10.ShardedExecutable, n)
	w.refSum = make([]uint64, n)
	w.last = make([]*t10.ShardedExecutable, n)
	for cls := range shardChips {
		if err := w.fresh(""); err != nil {
			return err
		}
		sr, err := w.compile(ctx, cls)
		if err != nil {
			return fmt.Errorf("reference %d-chip compile: %w", shardChips[cls], err)
		}
		w.ref[cls], w.refSum[cls] = sr.Executable, shardedDigest(sr.Executable)
	}
	return nil
}

func (w *shardedWorkload) prepare(int) error { return w.fresh("") }

func (w *shardedWorkload) do(ctx context.Context, i, cls int, tr *tracer, parent int) (any, time.Duration, error) {
	t0 := time.Now()
	sp := tr.begin("t10.CompileShardedWithResult", parent, i)
	sr, err := w.compile(ctx, cls)
	tr.end(sp)
	d := time.Since(t0)
	if err != nil {
		return nil, d, err
	}
	telemetryStages(tr, sp, &sr.Telemetry)
	return sr, d, nil
}

func (w *shardedWorkload) check(cls int, res any) error {
	sr := res.(*t10.ShardedResult)
	// repeated stage operators are answered from memory, so only the
	// cold share and the stage sum are invariants of a sharded compile
	tel := &sr.Telemetry
	if tel.RouteCold == 0 || tel.RouteDisk != 0 || tel.StageSum() > tel.Wall {
		return fmt.Errorf("routes cold=%d disk=%d, stage sum %v of wall %v",
			tel.RouteCold, tel.RouteDisk, tel.StageSum(), tel.Wall)
	}
	if got := shardedDigest(sr.Executable); got != w.refSum[cls] {
		return fmt.Errorf("partition digest %x differs from the reference %x", got, w.refSum[cls])
	}
	w.last[cls] = sr.Executable
	return nil
}

func (w *shardedWorkload) verify(ctx context.Context) (float64, float64, error) {
	// one chip must be the plain compile, bit for bit
	if err := w.fresh(""); err != nil {
		return 0, 0, err
	}
	plain, err := w.cur.Compile(ctx, w.model)
	if err != nil {
		return 0, 0, err
	}
	one := w.ref[0]
	if len(one.Stages) != 1 || exeDigest(one.Stages[0]) != exeDigest(plain) {
		return 0, 0, fmt.Errorf("1-chip sharded compile differs from the plain compile")
	}
	var lat, mem, oneChip float64
	for cls, se := range w.ref {
		rep := se.Simulate()
		if l := w.last[cls]; l != nil && l.Simulate().TotalNs != rep.TotalNs {
			return 0, 0, fmt.Errorf("%d chips: two evaluations disagree", shardChips[cls])
		}
		if cls == 0 {
			oneChip = rep.TotalNs
		} else if rep.TotalNs > oneChip {
			return 0, 0, fmt.Errorf("%d chips simulate slower (%v ns) than one (%v ns)", shardChips[cls], rep.TotalNs, oneChip)
		}
		lat += rep.LatencyMs()
		for _, st := range rep.Stages {
			if st.MemPeakPerCore > int64(w.spec.CoreMemBytes) {
				return 0, 0, fmt.Errorf("%d chips: a stage peaks at %d bytes/core", shardChips[cls], st.MemPeakPerCore)
			}
			if pct := 100 * float64(st.MemPeakPerCore) / float64(w.spec.CoreMemBytes); pct > mem {
				mem = pct
			}
		}
	}
	return lat, mem, nil
}

// ---- cold_bigcore --------------------------------------------------------

// bigcoreShapes are fp16 matmuls whose cold search on the 147 456-core
// stress device cuts ~100k temporal-factor leaves for ~500 priced.
var bigcoreShapes = [...][3]int{{2048, 1024, 4096}, {4096, 4096, 4096}, {1024, 2048, 8192}}

type bigcoreWorkload struct {
	inproc
	ops    []*expr.Expr
	ref    []*search.Result
	refSum []uint64
	last   []*search.Result
}

func newBigcoreWorkload(e *env) *bigcoreWorkload {
	return &bigcoreWorkload{inproc: inproc{env: e, spec: device.SP2Stress()}}
}

func (w *bigcoreWorkload) classes() []class {
	return []class{{"mm_2048x1024x4096", 1}, {"mm_4096x4096x4096", 1}, {"mm_1024x2048x8192", 1}}
}
func (w *bigcoreWorkload) maxRate() float64 { return 2000 }

func bigcoreOps() []*expr.Expr {
	ops := make([]*expr.Expr, len(bigcoreShapes))
	for i, s := range bigcoreShapes {
		ops[i] = expr.MatMul(fmt.Sprintf("mm%d", i), s[0], s[1], s[2], dtype.FP16)
	}
	return ops
}

func (w *bigcoreWorkload) setup(ctx context.Context, seed int64, blocks int) error {
	w.sched = genSchedule(seed, w.classes(), blocks)
	w.ops = bigcoreOps()
	if err := w.fresh(""); err != nil {
		return err
	}
	n := len(w.ops)
	w.ref = make([]*search.Result, n)
	w.refSum = make([]uint64, n)
	w.last = make([]*search.Result, n)
	for i, e := range w.ops {
		r, err := w.cur.Search(ctx, e)
		if err != nil {
			return fmt.Errorf("reference search of %s: %w", e.Name, err)
		}
		w.ref[i], w.refSum[i] = r, resultDigest(r)
	}
	return nil
}

func (w *bigcoreWorkload) prepare(i int) error {
	if i%len(w.ops) == 0 {
		return w.fresh("")
	}
	return nil
}

func (w *bigcoreWorkload) do(ctx context.Context, i, cls int, tr *tracer, parent int) (any, time.Duration, error) {
	t0 := time.Now()
	sp := tr.begin("t10.SearchWithResult", parent, i)
	sr, err := w.cur.SearchWithResult(ctx, w.ops[cls])
	tr.end(sp)
	d := time.Since(t0)
	if err != nil {
		return nil, d, err
	}
	telemetryStages(tr, sp, &sr.Telemetry)
	return sr, d, nil
}

func (w *bigcoreWorkload) check(cls int, res any) error {
	sr := res.(*t10.SearchResult)
	if err := checkRoutes(&sr.Telemetry, routeCold); err != nil {
		return err
	}
	if got := resultDigest(sr.Result); got != w.refSum[cls] {
		return fmt.Errorf("pareto digest %x differs from the reference %x", got, w.refSum[cls])
	}
	w.last[cls] = sr.Result
	return nil
}

func (w *bigcoreWorkload) verify(context.Context) (float64, float64, error) {
	var lat, mem float64
	budget := int64(w.spec.CoreMemBytes)
	for i, r := range w.ref {
		best := r.FastestWithin(budget)
		if best == nil {
			return 0, 0, fmt.Errorf("%s: no Pareto plan fits %d bytes/core", w.ops[i].Name, budget)
		}
		if l := w.last[i]; l != nil {
			if again := l.FastestWithin(budget); again == nil || again.Est != best.Est {
				return 0, 0, fmt.Errorf("%s: two evaluations disagree", w.ops[i].Name)
			}
		}
		lat += best.Est.TotalNs / 1e6
		if pct := 100 * float64(best.Est.MemPerCore) / float64(budget); pct > mem {
			mem = pct
		}
	}
	return lat, mem, nil
}
