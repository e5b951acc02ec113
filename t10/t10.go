// Package t10 is the public interface of the T10 reproduction: a deep
// learning compiler for inter-core connected intelligence processors
// (SOSP'24). It compiles operator graphs into compute-shift execution
// plans over the simulated chip, applying both optimization stages of
// the paper: the intra-operator Pareto search (§4.3.1) and the holistic
// inter-operator memory reconciliation (§4.3.2).
//
// Typical use:
//
//	c, _ := t10.New(device.IPUMK2(), t10.DefaultOptions())
//	exe, _ := c.Compile(ctx, models.BERT(8))
//	report := exe.Simulate()
//	fmt.Printf("latency: %.3f ms\n", report.LatencyMs())
//
// The API separates compiler-lifetime configuration from request-scoped
// policy. Options (plus CompilerOption values like WithCostFunc)
// configure a Compiler at construction, after which it is immutable —
// custom cost functions are part of its plan-cache fingerprint, so
// cache keys can never go stale. Compile and Search take a context plus
// per-request CompileOption values such as WithDetachOnCancel, which
// turns a cancelled request's in-flight operator searches into cache
// warm-up instead of discarded work. On a shared worker budget the
// compiler prices each request's admission itself (Options.SharedPool).
//
// CompileWithResult and SearchWithResult are the result-bearing forms:
// they return the same plans plus the request's structured Telemetry
// record — per-stage wall times, cache routes, admission weight, fusion
// outcome and the search-space counters of its cold searches. Every
// request collects it; Compile and Search are thin wrappers that
// discard it, and collection never changes plan selection.
package t10

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/device"
	"repro/internal/expr"
	"repro/internal/graph"
	"repro/internal/interop"
	"repro/internal/kernel"
	"repro/internal/mathutil"
	"repro/internal/perf"
	"repro/internal/plancache"
	"repro/internal/search"
	"repro/internal/sema"
	"repro/internal/sim"
)

// Options configures the compiler.
type Options struct {
	// Constraints are the intra-operator search filters (§4.3.1).
	Constraints search.Constraints

	// Workers is the compile-wide worker budget: one weighted semaphore
	// of Workers-1 helper slots is shared by Compile's per-operator
	// pool and every cold search's Fop shards, so the total number of
	// live goroutines never exceeds Workers no matter how the pools
	// nest. 0 means runtime.GOMAXPROCS(0). Workers=1 is the sequential
	// reference path — plan selection is bit-identical at every width.
	Workers int

	// CacheDir enables the on-disk plan cache layer: searches missing
	// in memory are answered from (and written to) content-addressed
	// records under this directory, so repeated t10c/t10serve
	// invocations skip the Pareto search entirely.
	CacheDir string

	// SharedCache, when non-nil, overrides CacheDir and makes this
	// compiler share a plan cache with others (attach fleet peers with
	// SetRemote). Cache keys cover the device, constraints and plan
	// config, so sharing is always safe.
	SharedCache *plancache.Cache

	// SharedPool, when non-nil, replaces the compiler's private worker
	// budget with a server-wide one (built with sema.NewShared): every
	// Compile/Search call first acquires its admission slots — waiting
	// in the pool's bounded admission queue, or failing fast with
	// sema.ErrSaturated — and helper workers keep drawing slots
	// opportunistically, so the total number of live worker goroutines
	// across every compiler and request sharing the pool never exceeds
	// its capacity. Workers still bounds how wide a single compile tries
	// to fan out.
	//
	// The compiler prices each request's slots itself: CostEstimate.Weight
	// of the one search list the request then runs (for a sharded
	// compile, every stage's searches, row-split shapes included). A
	// cold large model takes several, which come back to its own worker
	// pools as prepaid helper credit (sema.Sem.Admit); a fully
	// memory-cached request that assembles one model weighs 0 and skips
	// admission, so it is never shed, and a warm sharded one weighs 1.
	// The price is advisory: a weight-0 request that races an eviction
	// still compiles, outside the budget.
	SharedPool *sema.Sem

	// DetachLimit, when non-nil, caps how many WithDetachOnCancel
	// requests may run detached at once across every compiler sharing
	// the limiter; beyond the cap, cancellation degrades to the plain
	// kind. See NewDetachLimit.
	DetachLimit *DetachLimit

	// CacheSalt is the deployment secret that HMACs persisted plan
	// records (ignored under SharedCache, which carries its own salt):
	// a disk cache written under one salt loads as all-misses under any
	// other, and tampered records are rejected rather than trusted. See
	// plancache.Options.Salt.
	CacheSalt []byte
}

// DefaultOptions returns the paper's defaults.
func DefaultOptions() Options {
	return Options{Constraints: search.DefaultConstraints()}
}

// CompilerOption configures a Compiler at construction — the only
// moment configuration is possible: a Compiler is immutable after New,
// so the plan-cache fingerprint (which covers the registration set)
// can never go stale under it.
type CompilerOption func(c *Compiler)

// WithCostFunc registers a custom cost function for the named operator
// (the §4.3.1 user interface for custom kernels); it takes precedence
// over the fitted model when pricing that operator's candidates. The
// function is treated as opaque: subtree pruning assumes no compute
// floor for it (its bounds keep the shift, all-reduce and sync floors),
// and the selected Pareto set is exact regardless.
func WithCostFunc(opName string, f costmodel.CostFunc) CompilerOption {
	return func(c *Compiler) { c.CM.RegisterCustom(opName, f) }
}

// WithFusion enables the operator-fusion pass for every model this
// compiler compiles: before the per-operator searches, graph.Fuse
// folds fusible producer→consumer chains (elementwise epilogues onto
// matmul/conv outputs; attention-style score→softmax→weighted-sum
// contractions) into single composed operators, which the search then
// prices directly — one kernel launch, no intermediate tensor round-
// trip, and reconciliation sees only the group boundaries. Fusion is
// construction-scoped because the rule set is part of the plan-cache
// fingerprint: a fused and an unfused compile of the same model must
// never answer each other from cache. The zero RuleSet (or omitting
// this option) keeps fusion off and the compile bit-identical to the
// pre-fusion pipeline; graph.DefaultRules() enables every rule.
//
// When rules.Gate is nil, the compiler installs a profitability gate
// backed by the device's analytic cost model: a chain extension is
// kept only if the composed kernel prices no worse under an idealized
// output-parallel split than the two ops it replaces, plus the
// inter-op boundary it saves. This is what keeps a structurally legal
// but ruinous fusion — a chained contraction at decode-size batches,
// whose kernel recomputes the intermediate per output tile — out of
// the plan, while bias/activation epilogues still fold for free. Pass
// an explicit Gate (even one returning true) to override.
func WithFusion(rules graph.RuleSet) CompilerOption {
	return func(c *Compiler) {
		if rules.Gate == nil && rules.Enabled() {
			spec := c.Spec
			rules.Gate = func(fused, producer, consumer *expr.Expr) bool {
				sum := core.IdealizedNs(spec, producer, spec.Cores) +
					core.IdealizedNs(spec, consumer, spec.Cores)
				return core.IdealizedNs(spec, fused, spec.Cores) <= sum
			}
		}
		c.fusion = rules
		c.searcher.FusionRules = rules.String()
	}
}

// WithCalibration closes the cost model's measurement loop around this
// compiler: every cold search records its selected plans' (kernel task,
// ground-truth per-step time) pairs into ring — the active plans a
// compile picks among them, at exactly the per-step time Simulate
// charges, so simulation records nothing — and, when ring already
// holds samples, the compiler's cost models are refit over them at
// construction (costmodel.Set.Calibrate), so pricing, the leaves' bound
// and the subtree bounds' work floor all run on the calibrated fit; a
// kind whose refit would lose the shipped fit's costmodel.WorkLB floor
// keeps the shipped θ instead. Cache hits record nothing: a compiler
// answered from disk or a fleet peer samples only what it searches.
//
// Calibration is construction-scoped for the same reason custom cost
// functions are: the fit version and θ digest join the plan-record
// fingerprint, so a compiler built on a refit model can never answer
// (or be answered by) plans priced under another fit — stale-model
// records age out of the in-memory, disk and fleet tiers as counted
// rejects. To refine online, collect into the ring and periodically
// construct a fresh compiler from the same Options and ring (they
// share the disk cache and worker pool safely); t10serve -calibrate
// does exactly this.
//
// version names the fit. Every Compiler owns a fresh model set, so an
// auto-assigned version (version <= 0) restarts at 1 on each
// construction; an online refinement loop that repeatedly rebuilds
// compilers over the same ring passes an ascending version so /stats
// (and the record fingerprints) name each successive fit.
//
// An empty ring only installs the measurement tap: the compiler
// prices with the shipped fit (and the fingerprint is unchanged) until
// a later construction finds samples to calibrate on. A nil ring is a
// no-op.
func WithCalibration(ring *costmodel.SampleRing, version int) CompilerOption {
	return func(c *Compiler) {
		if ring == nil {
			return
		}
		spec := c.Spec
		c.searcher.SampleTap = func(task kernel.Task, measuredNs float64) {
			ring.RecordMeasured(spec, task, measuredNs)
		}
		if cal, err := c.CM.Calibrate(ring, version); err == nil {
			c.searcher.Calibration = cal.Tag()
		}
	}
}

// Compiler compiles models for one device. It is immutable after New
// and safe for concurrent use: every mutable structure it touches (the
// plan cache, the in-flight search deduplication, the worker budget)
// is internally synchronized.
type Compiler struct {
	Spec *device.Spec
	CM   *costmodel.Set
	Opts Options

	searcher *search.Searcher

	// pool is the compile-wide worker budget shared by Compile's
	// operator pool and the searcher's Fop shards: Workers-1 helper
	// slots when private, or the server-wide Opts.SharedPool.
	pool *sema.Sem

	// workers is Opts.Workers with the GOMAXPROCS default resolved.
	workers int

	// fusion is the operator-fusion rule set fixed at construction
	// (WithFusion); the zero RuleSet means the pass is off and Compile
	// is bit-identical to the pre-fusion pipeline.
	fusion graph.RuleSet
}

// Calibration reports the cost-model calibration this compiler prices
// with; ok is false when it prices with the shipped (profile-time) fit
// — including a WithCalibration compiler whose ring was still empty at
// construction.
func (c *Compiler) Calibration() (costmodel.Calibration, bool) {
	return c.CM.Calibration()
}

// New profiles the device, fits the cost models, applies the
// construction-scoped options (custom cost functions) and returns a
// compiler. The compiler is immutable afterwards: its plan-cache
// fingerprints cover the full registration set fixed here.
func New(spec *device.Spec, opts Options, copts ...CompilerOption) (*Compiler, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	cm, err := costmodel.NewSet(spec)
	if err != nil {
		return nil, err
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	pool := opts.SharedPool
	if pool == nil {
		pool = sema.New(workers - 1)
	}
	s := search.New(spec, cm, opts.Constraints, core.DefaultConfig())
	s.Workers = workers
	s.Pool = pool
	if opts.SharedCache != nil {
		s.SetCache(opts.SharedCache)
	} else if opts.CacheDir != "" {
		s.SetCache(plancache.New(plancache.Options{Dir: opts.CacheDir, Salt: opts.CacheSalt}))
	}
	c := &Compiler{
		Spec: spec, CM: cm, Opts: opts, searcher: s,
		pool: pool, workers: workers,
	}
	for _, o := range copts {
		if o != nil {
			o(c)
		}
	}
	return c, nil
}

// run is the one request spine under Search, Compile and
// CompileSharded: resolve the per-request options, list the request's
// operator searches, price them (on a shared pool only), admit the
// caller at that weight (sema.Sem.Admit, which also attaches the
// prepaid helper credit), attach the telemetry collector, run body —
// inline, or through detachRun when the request asked for
// detach-on-cancel — and close the telemetry record. The request kinds
// differ only in list and body, so pricing, admission, detach and
// telemetry are properties every kind gets by construction.
//
// body sees two contexts. reqCtx bounds the request: once it dies the
// body starts no new work and returns reqCtx.Err(). searchCtx is what
// the operator searches themselves observe — the same context normally,
// a cancellation-free one in detach mode, where the body keeps running
// on its own goroutine holding the admission slots until the in-flight
// searches have finished and been cached, while the caller returns
// ctx.Err() at once (the server-wide DetachLimit can degrade this to
// plain cancellation under a detach storm). The body reports its
// searches into col and adds its stage walls to tel.
func run[T any](ctx context.Context, c *Compiler, opts []CompileOption,
	list func() (*searchList, error),
	body func(reqCtx, searchCtx context.Context, col *search.Collector, tel *Telemetry) (T, error)) (T, Telemetry, error) {
	var zero T
	ro := resolveReqOptions(opts)
	start := time.Now()
	l, err := list()
	if err != nil {
		return zero, Telemetry{}, err
	}
	l.took = time.Since(start)
	weight := 0
	if c.Opts.SharedPool != nil {
		weight = c.estimate(l).Weight(c.pool.Cap())
	}
	ctx, leave, granted, wait, err := c.pool.Admit(ctx, weight)
	if err != nil {
		return zero, Telemetry{}, err
	}
	tel := Telemetry{AdmissionWait: wait, AdmissionWeight: granted}
	col := new(search.Collector)
	var v T
	if !ro.detach {
		v, err = func() (T, error) {
			defer leave()
			return body(ctx, ctx, col, &tel)
		}()
	} else {
		v, err = detachRun(ctx, c.Opts.DetachLimit, leave, func(sctx context.Context) (T, error) {
			return body(ctx, sctx, col, &tel)
		})
	}
	if err != nil {
		// not tel: a detached body may still be writing its stage walls
		return zero, Telemetry{}, err
	}
	tel.Counts, _, _ = col.Snapshot()
	tel.Wall = time.Since(start)
	return v, tel, nil
}

// PlanCache returns the compiler's plan cache.
func (c *Compiler) PlanCache() *plancache.Cache { return c.searcher.Cache() }

// CacheStats snapshots the plan cache counters (the /cachestats data).
func (c *Compiler) CacheStats() plancache.Stats { return c.searcher.Cache().Stats() }

// Search runs the intra-operator Pareto search for one operator (used
// by the serving path and by users compiling single kernels).
// Cancellation or an expired deadline stops a cold enumeration promptly
// and returns ctx.Err(), with nothing partial cached — unless
// WithDetachOnCancel is set, in which case the in-flight enumeration
// finishes in the background and lands in the plan cache, so a retry
// becomes a warm hit. On a shared worker budget the calling goroutine
// first acquires the admission slots the request is priced at
// (sema.ErrSaturated when the pool's queue is full).
func (c *Compiler) Search(ctx context.Context, e *expr.Expr, opts ...CompileOption) (*search.Result, error) {
	sr, err := c.SearchWithResult(ctx, e, opts...)
	if err != nil {
		return nil, err
	}
	return sr.Result, nil
}

// SearchWithResult is Search returning the request's telemetry
// alongside the plans: how long the request queued at admission, which
// cache route answered it, and the search-space accounting of any cold
// enumeration it ran. Search is a thin wrapper that discards the
// telemetry; plan selection is bit-identical between the two.
func (c *Compiler) SearchWithResult(ctx context.Context, e *expr.Expr, opts ...CompileOption) (*SearchResult, error) {
	if err := e.Validate(); err != nil {
		return nil, err
	}
	var l searchList
	r, tel, err := run(ctx, c, opts, func() (*searchList, error) {
		l.searches = []opSearch{{c.key(e), e}}
		return &l, nil
	}, func(_, searchCtx context.Context, col *search.Collector, tel *Telemetry) (*search.Result, error) {
		r, err := c.searcher.SearchKeyed(search.WithCollector(searchCtx, col), l.searches[0].key, e)
		// A single-operator request resolves sequentially, so the
		// collector's probe and search times are disjoint wall phases.
		_, tel.CacheProbe, tel.ColdSearch = col.Snapshot()
		return r, err
	})
	if err != nil {
		return nil, err
	}
	return &SearchResult{Result: r, Telemetry: tel}, nil
}

// Executable is a compiled model: per-operator idle/active plans plus
// the reconciliation schedule. When the compiler was built with
// WithFusion, Model is the fused model (what the plans and schedule
// index) and Fusion maps it back to the source ops; Fusion is nil when
// the pass was off.
type Executable struct {
	Model    *graph.Model
	Spec     *device.Spec
	Schedule *interop.Schedule
	Plans    []interop.OpPlans
	Fusion   *graph.FusedGraph

	// CompileTime is the request's wall time in the compiler less its
	// admission wait (Telemetry.Wall − AdmissionWait): listing,
	// searching, assembly and reconciliation. A sharded compile's stage
	// executables carry none; the ShardedExecutable holds the request's.
	CompileTime time.Duration
}

// Compile searches every operator, reconciles memory across operators
// and returns the executable. Configurations that cannot fit on-chip
// return an *interop.InfeasibleError. Cancelling ctx (or an expired
// deadline) stops the in-flight searches promptly and returns
// ctx.Err(); completed per-operator results stay cached, partial ones
// never are. With WithDetachOnCancel, cancellation instead lets the
// operator searches already in flight finish in the background and
// enter the plan cache (no new ops are started), so a retry of the same
// model resumes from warm entries. On a shared worker budget the
// calling goroutine first acquires the admission slots the request is
// priced at (sema.ErrSaturated when the pool's queue is full).
//
// The distinct operator searches are listed up front and run by the
// calling goroutine plus helpers drawn from the compile-wide worker
// budget (see Options.Workers); results land in the content-addressed
// plan cache. The inter-operator reconciliation (§4.3.2) stays
// sequential and deterministic, so plan selection is bit-identical at
// every pool width.
func (c *Compiler) Compile(ctx context.Context, m *graph.Model, opts ...CompileOption) (*Executable, error) {
	cr, err := c.CompileWithResult(ctx, m, opts...)
	if err != nil {
		return nil, err
	}
	return cr.Executable, nil
}

// CompileWithResult is Compile returning the request's telemetry
// alongside the executable: per-stage wall times (admission wait,
// operator-search phase, assembly, reconciliation), how
// each unique operator search was answered (cache routes), the
// admission weight charged, and the search-space accounting of the
// cold enumerations the request actually ran. Compile is a thin
// wrapper that discards the telemetry; plan selection is bit-identical
// between the two (collection observes the search, it never steers
// it).
func (c *Compiler) CompileWithResult(ctx context.Context, m *graph.Model, opts ...CompileOption) (*CompileResult, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	var l searchList
	exe, tel, err := run(ctx, c, opts, func() (*searchList, error) {
		return &l, c.prepare(m, &l)
	}, func(reqCtx, searchCtx context.Context, col *search.Collector, tel *Telemetry) (*Executable, error) {
		found, err := c.searchAll(reqCtx, searchCtx, &l, col, tel)
		if err != nil {
			return nil, err
		}
		return c.assemble(l.models[0], found, col, tel)
	})
	if err != nil {
		return nil, err
	}
	exe.CompileTime = tel.Wall - tel.AdmissionWait
	return &CompileResult{Executable: exe, Telemetry: tel}, nil
}

// opSearch is one distinct operator search of a request: the
// expression and the searcher's cache key it is identified by.
type opSearch struct {
	key plancache.Key
	e   *expr.Expr
}

// searchList is a request's distinct operator searches in first-listed
// order, identified by the searcher's cache key (shape signature plus
// whatever else the plans depend on), so what a request searches, what
// admission prices and what the plan cache stores are one set. Every
// model the request assembles — a plain compile's, or each sharded
// stage — is prepared into the one list.
type searchList struct {
	searches []opSearch
	models   []prepared    // in the order they were prepared
	took     time.Duration // the wall time the request spent listing

	// byKey and byExpr index the list across prepares (nil for one
	// model); byExpr keys each expression once, as the sharded stages
	// share one per (op, split).
	byKey  map[plancache.Key]int
	byExpr map[*expr.Expr]int
}

// prepared is one model of a request: the graph its plans index (fused
// under WithFusion) and each op's search in the request's searchList.
type prepared struct {
	m    *graph.Model
	fg   *graph.FusedGraph // nil when fusion is off
	slot []int
}

// prepare is where every model compile and every model price starts:
// the fusion pass (WithFusion) folds fusible chains first, so the
// composed expressions are what gets priced, searched, cached and
// reconciled, and the result joins l with its operator searches.
func (c *Compiler) prepare(m *graph.Model, l *searchList) error {
	p := prepared{m: m}
	if c.fusion.Enabled() {
		fg, err := graph.Fuse(m, c.fusion)
		if err != nil {
			return fmt.Errorf("fusion pass: %w", err)
		}
		p.m, p.fg = fg.Fused, fg
	}
	byKey := l.byKey
	if byKey == nil {
		byKey = make(map[plancache.Key]int, len(p.m.Ops)) // one model: a local index, kept off the heap
	}
	p.slot = make([]int, len(p.m.Ops))
	for i := range p.m.Ops {
		e := p.m.Ops[i].Expr
		j, ok := l.byExpr[e]
		if !ok {
			key := c.key(e)
			if j, ok = byKey[key]; !ok {
				j = len(l.searches)
				byKey[key] = j
				l.searches = append(l.searches, opSearch{key, e})
			}
			if l.byExpr != nil {
				l.byExpr[e] = j
			}
		}
		p.slot[i] = j
	}
	l.models = append(l.models, p)
	return nil
}

// keyHook, when set, is called per cache key computed (tests count them).
var keyHook func()

// key is the searcher's cache key of e.
func (c *Compiler) key(e *expr.Expr) plancache.Key {
	if keyHook != nil {
		keyHook()
	}
	return c.searcher.Key(e)
}

// found is one listed search's outcome.
type found struct {
	r   *search.Result
	err error
}

// searchAll runs every search of l in one spread of the budgeted worker
// pool and returns their outcomes, index-aligned with l.searches; a
// failed search keeps its error for the models that use it. Once reqCtx
// dies no new search starts (see run), and searchAll returns its error.
// col collects each search's route and aggregates; tel.ColdSearch gets
// the listing and search walls.
func (c *Compiler) searchAll(reqCtx, searchCtx context.Context, l *searchList, col *search.Collector, tel *Telemetry) ([]found, error) {
	start := time.Now()
	out := make([]found, len(l.searches))
	warmCtx := search.WithCollector(searchCtx, col)
	var next atomic.Int64
	work := func() {
		for {
			if reqCtx.Err() != nil {
				return // claim no new search; in-flight ones follow searchCtx
			}
			i := int(next.Add(1)) - 1
			if i >= len(out) {
				return
			}
			u := &l.searches[i]
			r, err := c.searcher.SearchKeyed(warmCtx, u.key, u.e)
			if err != nil {
				err = fmt.Errorf("op %s: %w", u.e.Name, err)
			}
			out[i] = found{r, err}
		}
	}
	c.pool.Spread(searchCtx, min(c.workers, len(out)), work)
	tel.ColdSearch += l.took + time.Since(start)
	if err := reqCtx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// assemble compiles one model from its searches' outcomes: it hands
// every op of p its result, reports the first failed search in model
// order (independent of pool scheduling) and reconciles. The assembly
// and reconciliation walls add to tel, summed over a sharded request's
// stages, which it assembles one after another.
func (c *Compiler) assemble(p prepared, found []found, col *search.Collector, tel *Telemetry) (*Executable, error) {
	start := time.Now()
	m := p.m
	if p.fg != nil {
		col.AddFusion(p.fg.GroupCount(), p.fg.FusedOpCount())
	}
	extraLive := m.ExtraLiveBytes()
	plans := make([]interop.OpPlans, len(m.Ops))
	for i := range m.Ops {
		f := &found[p.slot[i]]
		if f.err != nil {
			return nil, f.err
		}
		plans[i] = interop.OpPlans{
			Op: &m.Ops[i], Result: f.r,
			LiveBytesPerCore: mathutil.CeilDiv64(extraLive[i], int64(c.Spec.Cores)),
		}
	}
	tel.CacheProbe += time.Since(start)

	reconcileStart := time.Now()
	sched, err := interop.Reconcile(c.Spec, plans, int64(c.Spec.CoreMemBytes))
	if err != nil {
		return nil, err
	}
	tel.Reconcile += time.Since(reconcileStart)
	return &Executable{
		Model: m, Spec: c.Spec, Schedule: sched, Plans: plans,
		Fusion: p.fg,
	}, nil
}

// Simulate lowers every operator's active plan onto the simulated chip,
// charges the idle→active setup phases and inter-operator transitions,
// and returns the end-to-end report. It is a pure function: it records
// no calibration sample (the cold search that kept each plan did).
func (e *Executable) Simulate() *perf.Report {
	rep := &perf.Report{Model: e.Model.Name, Compiler: "T10", CompileTime: e.CompileTime}
	for i := range e.Model.Ops {
		op := &e.Model.Ops[i]
		asg := &e.Schedule.Assignments[i]
		repeat := op.Repeat
		if repeat <= 0 {
			repeat = 1
		}
		f := float64(repeat)

		opRep := perf.OpReport{Name: op.Name, Repeat: repeat}

		// idle→active setup
		moved := interop.SetupMovedBytes(&e.Plans[i], asg.Idle, asg.Active)
		if moved > 0 {
			prog := codegen.SetupProgram(e.Spec, moved*int64(e.Spec.Cores), false)
			st := sim.Run(e.Spec, prog)
			opRep.SetupNs += st.TotalNs * f
			opRep.BytesMoved += st.BytesMoved * int64(repeat)
		}

		// inter-operator transition for the activation input
		if tb := e.transitionBytes(i); tb > 0 {
			st := sim.Run(e.Spec, codegen.TransitionProgram(e.Spec, tb))
			opRep.SetupNs += st.TotalNs * f
			opRep.BytesMoved += st.BytesMoved * int64(repeat)
		}

		// the operator itself
		prog, err := codegen.Lower(e.Spec, asg.Active.Plan)
		if err != nil {
			// Lower re-validates placement; search only emits valid plans,
			// so this is a compiler bug worth crashing on.
			panic(fmt.Sprintf("t10: lowering validated plan failed: %v", err))
		}
		st := sim.Run(e.Spec, prog)
		opRep.ComputeNs = st.ComputeNs * f
		opRep.ExchangeNs = st.ExchangeNs * f
		opRep.SyncNs = st.SyncNs * f
		opRep.BytesMoved += st.BytesMoved * int64(repeat)
		opRep.ShiftBytes = st.BytesMoved * int64(repeat)
		opRep.MemPerCore = st.MemPeakPerCore + (e.Schedule.IdleMemPerCore - asg.IdleMemPerCore) +
			e.Plans[i].LiveBytesPerCore
		opRep.TotalNs = opRep.ComputeNs + opRep.ExchangeNs + opRep.SyncNs + opRep.SetupNs

		rep.Ops = append(rep.Ops, opRep)
		rep.ComputeNs += opRep.ComputeNs
		rep.ExchangeNs += opRep.ExchangeNs
		rep.SyncNs += opRep.SyncNs
		rep.SetupNs += opRep.SetupNs
		rep.TotalNs += opRep.TotalNs
		rep.BytesMoved += opRep.BytesMoved
		rep.ShiftBytes += opRep.ShiftBytes
		if opRep.MemPerCore > rep.MemPeakPerCore {
			rep.MemPeakPerCore = opRep.MemPerCore
		}
	}
	return rep
}

// transitionBytes returns the activation bytes that must re-arrange
// between the producer's output layout and operator i's input layout
// (§5 "inter-operator transition"); zero when the layouts agree.
func (e *Executable) transitionBytes(i int) int64 {
	op := &e.Model.Ops[i]
	for j, src := range op.Sources {
		if src == graph.External || op.IsWeight(j) {
			continue
		}
		prod := e.Schedule.Assignments[src].Active.Plan
		cons := e.Schedule.Assignments[i].Active.Plan
		pOut := prod.Tensors[len(prod.Tensors)-1]
		cIn := cons.Tensors[j]
		if layoutsMatch(&pOut, &cIn) {
			continue
		}
		return op.Expr.TensorBytes(op.Expr.Inputs[j])
	}
	return 0
}

// layoutsMatch reports whether two rTensor layouts partition the same
// data identically (same spatial split, no temporal re-split, no
// replication mismatch).
func layoutsMatch(a, b *core.RTensor) bool {
	if len(a.Fs) != len(b.Fs) {
		return false
	}
	for d := range a.Fs {
		if a.Fs[d] != b.Fs[d] || a.Ft[d] != b.Ft[d] {
			return false
		}
	}
	return a.Rings == b.Rings
}
