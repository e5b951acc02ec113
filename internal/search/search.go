// Package search implements T10's intra-operator optimization (§4.3.1):
// it enumerates compute-shift execution plans — operator partition
// factors Fop and per-tensor temporal factors f_t — prices each with the
// fitted cost model, filters with the user-configurable parallelism and
// padding constraints, and keeps the Pareto-optimal frontier between
// execution time and per-core memory.
//
// The enumeration mirrors the paper's filtering story (Fig 18): the
// complete space is astronomically large (it grows exponentially with
// the operator's dimension count), the rule-based constraints cut it to
// at most a few thousand candidates, and the cost model reduces those to
// a few dozen Pareto-optimal plans.
//
// The cold path is a parallel, pruning search engine. Fop shards are
// processed best-first (highest achievable parallelism first, so the
// Pareto frontier warms with fast plans) by a pool that draws helper
// slots from a compile-wide budget (internal/sema), and the
// temporal-factor recursion itself is pruned: the padding rule is a
// prefix property (the sketch rejects a tensor's factors the moment an
// axis' running LCM over-pads — filters before pricing, as in §4.3.1),
// and a partial assignment's admissible lower bounds on per-core memory
// and TotalNs (core.PlanSketch's incremental form — carrying a compute
// floor on the prefix's total work when the cost predictor declares the
// costmodel.WorkLB capability) cut whole subtrees against the streaming
// frontier before the deeper tensors are enumerated, down to each combo
// of the last input, screened before it is fixed. The frontier starts empty and
// the best-first order warms it: the first shards hold the fast plans,
// so every later shard prunes against them. Each surviving leaf is then
// finished from the prefix the recursion already holds and priced once
// on the sketch (core.PlanSketch.Estimate, bit-identical to the Plan's
// estimate); that estimate, scaled down by 1e-9, is also the leaf's
// pruning bound. The shard keeps its undominated leaves in enumeration
// order and writes them to the frontier once, when it ends, dropping
// the ones the updated frontier dominates. A core.Plan is built only
// for the candidates the merge keeps in the Pareto set. A deterministic
// merge keeps the selected Pareto set bit-identical to the sequential,
// unpruned enumeration (Searcher.Reference) at every worker count.
//
// The whole engine is context-aware (SearchOpCtx): cancellation is
// checked at every Fop shard boundary and every few hundred leaf
// visits of the temporal-factor recursion, so an abandoned request
// stops promptly, returns ctx.Err(), and leaves the plan cache and the
// in-flight deduplication consistent — a cancelled search caches
// nothing, and waiters deduplicated onto a cancelled flight retry
// under their own context.
package search

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/device"
	"repro/internal/expr"
	"repro/internal/kernel"
	"repro/internal/mathutil"
	"repro/internal/plancache"
	"repro/internal/sema"
)

// Constraints are the user-configurable plan filters of §4.3.1.
type Constraints struct {
	// ParallelismMin keeps plans that use at least this fraction of the
	// maximum achievable core count for the operator (paper example: 0.9).
	ParallelismMin float64

	// PaddingMin keeps plans whose original/padded size ratio is at
	// least this value on every axis (paper example: 0.9 → at most 11%
	// padding overhead).
	PaddingMin float64

	// MaxFtCombos caps the temporal-factor combinations considered per
	// tensor per Fop (a safety valve; generous by default). Zero or
	// negative means unlimited. Capped enumerations are counted in
	// Spaces.TruncatedFtCombos — no silent truncation.
	MaxFtCombos int
}

// DefaultConstraints returns the paper's example settings.
func DefaultConstraints() Constraints {
	return Constraints{ParallelismMin: 0.9, PaddingMin: 0.9, MaxFtCombos: 64}
}

// Spaces reports the filtered and optimized space sizes of Fig 18 plus
// search diagnostics. The third size, the unconstrained complete space,
// depends on the expression alone and is no part of a search: see
// CompleteSpace. The JSON names are the sealed plan record's keys
// (resultRecord), in record order.
type Spaces struct {
	// Filtered is the number of individually evaluated plans that
	// survived the rule-based constraints (valid partition, padding
	// ratio, per-core memory). On Searcher.Reference it is the exact,
	// deterministic rule-based count of Fig 17/18; the engine never
	// evaluates the candidates inside cut subtrees, so there Filtered
	// undercounts by the valid fraction of CutLeaves (it is exact about
	// everything that was examined).
	Filtered int `json:"filtered"`

	// Optimized is the number of Pareto-optimal plans kept.
	Optimized int `json:"optimized"`

	// Every filtered candidate is priced once (its sketch Estimate,
	// whose scaled TotalNs is its pruning bound). Priced is the number
	// kept for the Pareto merge; Pruned is the number whose estimate the
	// running frontier already dominated when it was checked.
	// Priced + Pruned == Filtered. The split is schedule-dependent under
	// parallel search (the Pareto set is not).
	Priced int `json:"priced,omitempty"`
	Pruned int `json:"pruned,omitempty"`

	// Seeded counted the candidates the engine once priced into the
	// frontier before any shard ran. Nothing seeds the frontier now, so
	// a search reports 0; records sealed before that may still carry a
	// count.
	//
	// Deprecated: always 0 on a new search. Kept because the record
	// layout and the benchmark harness read it; it goes with the bench
	// re-baseline (ROADMAP 8(d)).
	Seeded int `json:"seeded,omitempty"`

	// CutSubtrees counts the partial temporal-factor assignments whose
	// admissible (memory, time) lower bounds were already dominated by
	// the running frontier, cutting the recursion before the deeper
	// tensors were enumerated — a last-input combo the screen cuts
	// (core.PlanSketch.Screen) counts as a subtree of one leaf;
	// CutLeaves is the number of complete assignments skipped inside
	// those subtrees (valid or not — they were never evaluated).
	// Schedule-dependent, like the Priced/Pruned split; the Pareto set
	// is not.
	CutSubtrees int `json:"cut_subtrees,omitempty"`
	CutLeaves   int `json:"cut_leaves,omitempty"`

	// TruncatedFtCombos counts the per-tensor temporal-factor
	// enumerations that hit a cap (the MaxFtCombos subsample or the
	// internal hard cap), summed over all Fop candidates — surfaced so a
	// capped search is never silent. Deterministic: it is computed in a
	// sequential pre-pass over the shared temporal-factor table, before
	// any pruning or scheduling can hide a capped enumeration.
	TruncatedFtCombos int `json:"truncated_ft,omitempty"`

	// FusedOps counts the source operators composed into the searched
	// expression by the fusion pass (0 for an unfused op, ≥2 for a fused
	// group) — carried so a cached record stays honest about what its
	// plans cover.
	FusedOps int `json:"fused_ops,omitempty"`
}

// Candidate is one priced plan.
type Candidate struct {
	Plan *core.Plan
	Est  core.Estimate

	// fop and fts are the partition decisions of a candidate priced
	// without a Plan (on the sketch, or read from a record); buildPlans
	// turns them into Plan.
	fop []int
	fts [][]int
}

// buildPlans gives every planless candidate its core.Plan from the
// partition decisions it carries, keeping the carried estimate: the one
// place plans are made for the candidates a search keeps or a record
// holds (NewPlan re-validates the decisions against the expression).
func buildPlans(e *expr.Expr, cfg core.Config, cs []Candidate) error {
	for i := range cs {
		c := &cs[i]
		p, err := core.NewPlan(e, c.fop, c.fts, cfg)
		if err != nil {
			return fmt.Errorf("plan %d of %s: %w", i, e.Name, err)
		}
		c.Plan, c.fop, c.fts = p, nil, nil
	}
	return nil
}

// Result is the outcome of one operator search.
type Result struct {
	Op      string
	Pareto  []Candidate // sorted by MemPerCore ascending (time descending)
	Spaces  Spaces
	Elapsed time.Duration

	// Leaves the sketch finished / the core-memory filter then dropped:
	// work counts for the tests, outside Spaces and so outside records.
	finished, memRejects int
}

// MinMemory returns the Pareto plan with the smallest footprint.
func (r *Result) MinMemory() *Candidate {
	if len(r.Pareto) == 0 {
		return nil
	}
	return &r.Pareto[0]
}

// FastestWithin returns the fastest Pareto plan whose per-core memory
// fits in the budget, or nil if none fits.
func (r *Result) FastestWithin(memBudget int64) *Candidate {
	if i := r.FastestIndexWithin(memBudget); i >= 0 {
		return &r.Pareto[i]
	}
	return nil
}

// FastestIndexWithin is FastestWithin as an index into Pareto — the
// first of equally fast plans that fit —, or -1 if none fits.
func (r *Result) FastestIndexWithin(memBudget int64) int {
	best := -1
	for i := range r.Pareto {
		c := &r.Pareto[i]
		if c.Est.MemPerCore <= memBudget && (best < 0 || c.Est.TotalNs < r.Pareto[best].Est.TotalNs) {
			best = i
		}
	}
	return best
}

// Searcher runs intra-operator searches with a shared cost model and a
// content-addressed plan cache (identical operators reuse results, as
// the paper notes — within a model, across models, and, with a disk
// layer, across processes). Concurrent searches for the same key are
// deduplicated: one flight runs, everyone else waits for its result.
type Searcher struct {
	Spec *device.Spec
	CM   *costmodel.Set
	Cons Constraints
	Cfg  core.Config

	// Workers bounds the Fop shards of one cold search; 0 means
	// runtime.GOMAXPROCS(0). Plan selection is bit-identical at every
	// width — Workers only changes wall-clock (and the Priced/Pruned
	// split).
	Workers int

	// FusionRules names the graph-fusion rule set active above this
	// searcher (graph.RuleSet.String(); empty or "off" when fusion is
	// disabled). The search itself is fusion-agnostic — a fused op is
	// just an expression — but the rule set joins the plan-record
	// fingerprint so plans produced under different fusion regimes can
	// never answer each other from the cache or the fleet tier.
	FusionRules string

	// Calibration tags the calibrated cost-model fit this searcher
	// prices with (costmodel.Calibration.Tag(); empty when pricing with
	// the shipped fit). Like FusionRules it is a fingerprint component,
	// not behaviour: the predictor itself arrives through CM, but plans
	// priced under different fits must never answer each other from any
	// cache tier — a refit without a tag change would serve stale-model
	// plans forever.
	Calibration string

	// SampleTap, when non-nil, receives every Pareto survivor's kernel
	// task paired with its ground-truth per-step time after a cold
	// search completes — the opt-in post-search measurement hook of the
	// calibration loop. Called from whichever goroutine finishes the
	// search, outside any searcher lock, so the tap must be cheap and
	// safe for concurrent use (costmodel.SampleRing is). Observational
	// only: it can never change the result, and cache hits never fire
	// it (their plans were measured when first searched).
	SampleTap func(task kernel.Task, measuredNs float64)

	// Pool, when non-nil, is the compile-wide worker budget this
	// searcher shares with t10's Compile: Fop shards fan out through
	// Pool.Spread, which starts a helper only while a prepaid credit or
	// a free slot pays for it, so the nested pools never exceed the
	// budget. When nil, each cold search gets a private budget of
	// Workers-1 helpers.
	Pool *sema.Sem

	cache  *plancache.Cache
	head   atomic.Pointer[keyMemo] // Key's memoised configuration head
	ftMemo ftMemo                  // temporal-factor choice sets, shared by this searcher's searches

	mu       sync.Mutex
	inflight map[plancache.Key]*flight
}

// flight is one in-progress search other callers can wait on.
type flight struct {
	done chan struct{}
	res  *Result
	err  error
}

// New creates a Searcher with a private in-memory plan cache; use
// SetCache to share one across searchers or add a disk layer.
func New(spec *device.Spec, cm *costmodel.Set, cons Constraints, cfg core.Config) *Searcher {
	return &Searcher{
		Spec: spec, CM: cm, Cons: cons, Cfg: cfg,
		cache:    plancache.New(plancache.Options{}),
		inflight: make(map[plancache.Key]*flight),
	}
}

// SetCache replaces the searcher's plan cache. Fingerprints cover the
// device, constraints and config, so one cache is safe to share across
// arbitrary searchers.
func (s *Searcher) SetCache(c *plancache.Cache) {
	if c != nil {
		s.cache = c
	}
}

// Cache returns the searcher's plan cache (for stats endpoints).
func (s *Searcher) Cache() *plancache.Cache { return s.cache }

// Cached reports whether e's search would be answered from the
// in-memory plan cache right now. It is a stat-free Peek — an
// observation for admission control, not a use — and deliberately
// ignores the disk layer (a disk hit still costs a read and a decode,
// which is not free under load). Advisory: a concurrent eviction can
// invalidate the answer before the search runs.
func (s *Searcher) Cached(e *expr.Expr) bool {
	_, ok := s.cache.Peek(s.Key(e))
	return ok
}

// FopCount returns the number of rule-filtered operator partition
// candidates a cold search of e would shard — the no-search work proxy
// behind cost-weighted admission (every shard expands into its
// temporal-factor subtree, so the count tracks total search work
// without running any of it). It walks the space without materializing
// it: the admission pre-pass runs per request, so it must not allocate
// per candidate.
func (s *Searcher) FopCount(e *expr.Expr) int {
	n := 0
	s.walkFops(e, func([]int) { n++ })
	return n
}

// SearchOp finds the Pareto-optimal plans for one operator with no
// deadline; see SearchOpCtx.
func (s *Searcher) SearchOp(e *expr.Expr) (*Result, error) {
	return s.SearchOpCtx(context.Background(), e)
}

// isCtxErr reports whether err is a context cancellation or deadline —
// the caller's problem, never a property of the search itself.
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// SearchOpCtx finds the Pareto-optimal plans for one operator: from the
// in-memory cache, a concurrent in-flight search, the disk layer, or a
// fresh enumeration, in that order. Errors are shared with concurrent
// waiters but never cached.
//
// Cancelling ctx stops a fresh enumeration promptly (checked at Fop
// shard boundaries and every few hundred leaf visits) and returns
// ctx.Err(); nothing partial reaches either cache layer. A waiter whose
// own ctx dies abandons the flight (which keeps running for its owner);
// a waiter whose flight *owner* was cancelled retries the search under
// its own ctx instead of inheriting the foreign cancellation.
func (s *Searcher) SearchOpCtx(ctx context.Context, e *expr.Expr) (*Result, error) {
	return s.SearchKeyed(ctx, s.Key(e), e)
}

// SearchKeyed is SearchOpCtx for a caller already holding key ==
// s.Key(e), as a compile does after de-duplicating ops by it.
func (s *Searcher) SearchKeyed(ctx context.Context, key plancache.Key, e *expr.Expr) (*Result, error) {
	col := CollectorFrom(ctx)
	for {
		var probeStart time.Time
		if col != nil {
			probeStart = time.Now()
		}
		if v, ok := s.cache.Get(key); ok {
			if col != nil {
				col.answered(routeMemory, time.Since(probeStart))
			}
			return v.(*Result), nil
		}

		s.mu.Lock()
		if f, ok := s.inflight[key]; ok {
			s.mu.Unlock()
			select {
			case <-f.done:
				if f.err != nil && isCtxErr(f.err) && ctx.Err() == nil {
					continue // the owner was cancelled, not the search: retry as owner
				}
				// the flight-wait is probe time: this request did no
				// search work of its own
				if col != nil {
					col.answered(routeFlightWait, time.Since(probeStart))
				}
				return f.res, f.err
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		f := &flight{done: make(chan struct{})}
		s.inflight[key] = f
		s.mu.Unlock()

		f.res, f.err = s.lookupOrSearch(ctx, key, e)
		s.mu.Lock()
		delete(s.inflight, key)
		s.mu.Unlock()
		close(f.done)
		return f.res, f.err
	}
}

// lookupOrSearch tries the disk layer, then the fleet peers, then runs
// the enumeration, and populates the cache layers on the way out.
func (s *Searcher) lookupOrSearch(ctx context.Context, key plancache.Key, e *expr.Expr) (*Result, error) {
	col := CollectorFrom(ctx)
	var probeStart time.Time
	if col != nil {
		probeStart = time.Now()
	}
	if blob, ok := s.cache.GetBlob(key); ok {
		if r, err := decodeResult(e, s.Cfg, blob); err == nil {
			s.cache.Put(key, r)
			if col != nil {
				col.answered(routeDisk, time.Since(probeStart))
			}
			return r, nil
		}
		// corrupt or stale record: fall through to a fresh search,
		// which overwrites it
	}
	if payload, ok := s.cache.GetRemote(ctx, key); ok {
		if r, err := decodeResult(e, s.Cfg, payload); err == nil {
			s.cache.Put(key, r)
			if col != nil {
				col.answered(routeRemote, time.Since(probeStart))
			}
			return r, nil
		}
		// verified but undecodable (e.g. built under a different search
		// config revision): treat as a miss and search fresh
	}
	var probe time.Duration
	if col != nil {
		probe = time.Since(probeStart)
	}
	r, err := s.searchOp(ctx, e)
	if err != nil {
		return nil, err
	}
	col.searched(probe, r)
	if s.Key(e) != key {
		// a custom cost function was (un)registered for this operator
		// mid-search, so the result was priced by a mix of models —
		// return it to this caller but never cache it under either key
		return r, nil
	}
	s.cache.Put(key, r)
	if !s.cache.Persists() {
		return r, nil // a memory-only cache would drop the record
	}
	if blob, err := encodeRecord(r); err == nil {
		_ = s.cache.PutBlob(key, blob) // best effort; stats count failures
	}
	return r, nil
}

// fopShard collects one Fop's candidates and counters. Workers write
// disjoint shards; the merge reads them in enumeration order, so the
// outcome is independent of pool scheduling.
type fopShard struct {
	cands       []Candidate
	filtered    int
	pruned      int
	cutSubtrees int
	cutLeaves   int
	finished    int // leaves that reached PlanSketch.Finish
	memRejects  int // finished leaves over core memory
	screened    int // last-input combos bounded by PlanSketch.Screen
}

// searchOp runs the actual enumeration (§4.3.1), bypassing every cache
// layer. Cancellation is cooperative: every worker re-checks ctx at
// each Fop shard boundary and every leafCheckInterval leaf visits, the
// first observer raises a shared flag the others poll cheaply, and a
// cancelled search returns ctx.Err() with nothing cached.
func (s *Searcher) searchOp(ctx context.Context, e *expr.Expr) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	start := time.Now()
	r := &Result{Op: e.Name}

	fops := s.enumerateFops(e)
	if len(fops) == 0 {
		return nil, fmt.Errorf("search %s: no operator partition passes the constraints", e.Name)
	}

	// Worker budget: the shared compile-wide semaphore, or a private
	// one for standalone searchers. The calling goroutine is always the
	// first worker, so a contended budget degrades to sequential and
	// the private budget holds slots for the Workers-1 helpers only.
	pool := s.Pool
	if pool == nil {
		pool = sema.New(s.searchWorkers(len(fops)) - 1)
	}

	// Sequential pre-pass: one shared, read-only temporal-factor table
	// for all workers (distinct Fops repeat the same (tensor, sharing
	// degree) pairs constantly), with the truncation count fixed
	// deterministically before pruning can skip any enumeration.
	table, truncated := s.buildFtTable(e, fops)
	r.Spaces.TruncatedFtCombos = truncated
	r.Spaces.FusedOps = e.FusedOps

	pred := s.CM.Resolve(e.Name, e.Kind)
	pf := &pruneFrontier{}
	// Best-first shard order: the shards most likely to hold fast plans
	// first, so the frontier warms with low-time entries and later
	// shards prune harder. Shards stay indexed by enumeration position,
	// so the merge below is independent of the processing order. For an
	// opaque custom cost function, the ordering pass's predictions seed
	// every worker's task memo, so they are never re-predicted.
	seedPred, seed := memoize(pred, nil)
	order := s.shardOrder(e, fops, seedPred)
	shards := make([]fopShard, len(fops))
	var next atomic.Int64
	var cancelled atomic.Bool
	work := func() {
		w := newSearchWorker(s, e, pred, table, seed)
		w.ctx, w.cancelled = ctx, &cancelled
		for {
			// shard boundary: the first worker to observe the dead ctx
			// raises the shared flag; everyone else sees the flag
			if cancelled.Load() {
				return
			}
			if ctx.Err() != nil {
				cancelled.Store(true)
				return
			}
			i := int(next.Add(1)) - 1
			if i >= len(order) {
				return
			}
			oi := order[i]
			w.processFop(fops[oi], &shards[oi], pf)
		}
	}
	pool.Spread(ctx, s.searchWorkers(len(fops)), work)
	if cancelled.Load() || ctx.Err() != nil {
		// abandon the partial shards; nothing reaches the cache
		return nil, ctx.Err()
	}

	// Deterministic merge: stream every shard's candidates into the
	// frontier in enumeration order — exactly the order the sequential
	// path would have produced them.
	var front Frontier
	for i := range shards {
		sh := &shards[i]
		r.Spaces.Filtered += sh.filtered
		r.Spaces.Priced += len(sh.cands)
		r.Spaces.Pruned += sh.pruned
		r.Spaces.CutSubtrees += sh.cutSubtrees
		r.Spaces.CutLeaves += sh.cutLeaves
		r.finished += sh.finished
		r.memRejects += sh.memRejects
		for j := range sh.cands {
			front.Insert(sh.cands[j])
		}
	}
	r.Pareto = front.Candidates()
	if len(r.Pareto) == 0 {
		return nil, fmt.Errorf("search %s: every candidate exceeds core memory", e.Name)
	}
	// only the Pareto survivors get a core.Plan
	if err := buildPlans(e, s.Cfg, r.Pareto); err != nil {
		return nil, err
	}
	r.Spaces.Optimized = len(r.Pareto)
	if s.SampleTap != nil {
		// The measurement hook of the calibration loop: each selected
		// plan's task paired with the simulator's ground truth for it
		// (kernel.Nanoseconds is exactly what codegen charges per
		// compute step, so this equals the simulated per-step time
		// without paying for a lowering).
		for i := range r.Pareto {
			task := r.Pareto[i].Plan.KernelTask()
			s.SampleTap(task, kernel.Nanoseconds(s.CM.Spec, task))
		}
	}
	r.Elapsed = time.Since(start)
	return r, nil
}

// shardOrder returns the best-first processing order of the Fop shards:
// highest achievable compute parallelism first (PlanSketch.Cores — more
// cores, faster plans), and within a parallelism tier the shard
// whose replicated (no temporal factor) candidate sketches the lowest
// time bound: that candidate is each shard's fastest, so pricing it
// early gives the frontier its low-time entries while the other shards
// are still queued. One sketch per shard prices the key; remaining
// ties keep enumeration order, so the schedule is reproducible.
func (s *Searcher) shardOrder(e *expr.Expr, fops [][]int, pred costmodel.Predictor) []int {
	type shardRank struct {
		cores int
		bound float64
		idx   int
	}
	ranks := make([]shardRank, len(fops))
	sketch := core.NewPlanSketch(e, s.Cfg)
	for i, fop := range fops {
		ranks[i] = shardRank{cores: mathutil.Prod(fop...), bound: math.Inf(1), idx: i}
		if sketch.Compute(fop, nil) {
			ranks[i].bound = leafBound(sketch.Estimate(s.CM.Spec, pred))
		}
	}
	// cores descending, bound ascending, then enumeration order: the index
	// tie-break makes the unstable sort the stable one
	slices.SortFunc(ranks, func(a, b shardRank) int {
		switch {
		case a.cores != b.cores:
			return b.cores - a.cores
		case a.bound < b.bound:
			return -1
		case b.bound < a.bound:
			return 1
		}
		return a.idx - b.idx
	})
	order := make([]int, len(ranks))
	for i, r := range ranks {
		order[i] = r.idx
	}
	return order
}

// ftTable is the per-search read-only temporal-factor table: one
// ftChoices outcome per (tensor, sharing degree) pair, shared by all
// workers.
type ftTable struct {
	sets []map[int]ftChoiceSet // per tensor: sharing degree → choices
}

// tensorShare returns the sharing degree of tensor tr under fop.
func tensorShare(e *expr.Expr, tr expr.TensorRef, fop []int) int {
	share := 1
	for a := range e.Axes {
		if fop[a] > 1 && !expr.ContainsAxis(tr, a) {
			share *= fop[a]
		}
	}
	return share
}

// buildFtTable collects the temporal-factor choices for every (tensor,
// sharing degree) pair the Fop candidates produce — from the searcher's
// memo, which enumerates each distinct set once — and counts the capped
// enumerations exactly as the sequential path encounters them (per Fop
// per tensor).
func (s *Searcher) buildFtTable(e *expr.Expr, fops [][]int) (*ftTable, int) {
	tensors := e.Tensors()
	t := &ftTable{sets: make([]map[int]ftChoiceSet, len(tensors))}
	for ti := range t.sets {
		t.sets[ti] = make(map[int]ftChoiceSet)
	}
	truncated := 0
	for _, fop := range fops {
		for ti, tr := range tensors {
			if ti == len(tensors)-1 {
				continue // output never takes temporal factors
			}
			share := tensorShare(e, tr, fop)
			cs, ok := t.sets[ti][share]
			if !ok {
				cs = s.ftSet(tr, share)
				t.sets[ti][share] = cs
			}
			if cs.truncated {
				truncated++
			}
		}
	}
	return t, truncated
}

// ftMemo memoises temporal-factor choice sets across the searches of one
// Searcher. A set is a pure function of its ftKey — no extent enters it
// — so every operator with the same sharing degree and dim shape reuses
// one, read-only. It lives on the Searcher, not process-wide, so a
// fresh compiler's compile stays cold.
type ftMemo struct {
	mu    sync.Mutex
	sets  map[ftKey]ftChoiceSet
	built int // sets enumerated, one per key: what the count guard reads
}

// ftKey is what an ftChoiceSet depends on: the sharing degree, the
// tensor's dim count, which dims may take a factor (bit d set: dim d is
// single-axis and stride 1) and the combination cap.
type ftKey struct {
	share, dims int
	eligible    uint64
	maxCombos   int
}

// ftSet returns tensor tr's choice set at sharing degree share from the
// memo, enumerating it on first use. The lock is held across the
// enumeration, so concurrent first uses of one key enumerate it once.
func (s *Searcher) ftSet(tr expr.TensorRef, share int) ftChoiceSet {
	if len(tr.Dims) > 64 {
		return s.newFtChoiceSet(tr, share) // too many dims for the mask: unmemoised
	}
	k := ftKey{share: share, dims: len(tr.Dims), maxCombos: s.Cons.MaxFtCombos}
	for d, dim := range tr.Dims {
		if !dim.Compound() && dim.Terms[0].Stride == 1 {
			k.eligible |= 1 << d
		}
	}
	m := &s.ftMemo
	m.mu.Lock()
	defer m.mu.Unlock()
	cs, ok := m.sets[k]
	if !ok {
		if m.sets == nil {
			m.sets = make(map[ftKey]ftChoiceSet)
		}
		cs = s.newFtChoiceSet(tr, share)
		m.sets[k] = cs
		m.built++
	}
	return cs
}

// newFtChoiceSet enumerates tensor tr's choices at sharing degree share
// (ftChoices) and derives the table entry's bounds.
func (s *Searcher) newFtChoiceSet(tr expr.TensorRef, share int) ftChoiceSet {
	combos, trunc := s.ftChoices(tr, share)
	if len(combos) > 0 && combos[0] != nil {
		// One backing array for every combo: the set outlives its search
		// on the memo, and an object per combo (thousands over a model
		// set) would sit in the small size classes every later compile
		// allocates from, measurably slowing warm compiles.
		flat := make([]int, 0, len(combos)*len(tr.Dims))
		rows := make([][]int, len(combos))
		for i, c := range combos {
			flat = append(flat, c...)
			rows[i] = flat[len(flat)-len(c) : len(flat) : len(flat)]
		}
		combos = rows
	}
	maxProd := 1
	for _, c := range combos {
		if p := mathutil.Prod(c...); p > maxProd {
			maxProd = p
		}
	}
	return ftChoiceSet{combos: combos, truncated: trunc, maxProd: maxProd}
}

// searchWorkers returns the Fop shard pool width for n partition
// candidates.
func (s *Searcher) searchWorkers(n int) int {
	w := s.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return mathutil.Clamp(w, 1, n)
}

// searchWorker holds one goroutine's scratch state: the plan sketch,
// the shared temporal-factor table and the reusable combination buffers
// — nothing here allocates per candidate.
type searchWorker struct {
	s       *Searcher
	e       *expr.Expr
	tensors []expr.TensorRef
	sketch  *core.PlanSketch
	table   *ftTable

	// pred is the resolved predictor, wrapped in a per-worker kernel-task
	// memo when it is an opaque custom cost function (see memoize):
	// leaves that differ only in temporal factors often share a kernel
	// task.
	pred costmodel.Predictor

	// work is the resolved predictor's costmodel.WorkLB capability
	// (fitted and calibrated models whose coefficients admit it), nil
	// otherwise: it floors a prefix's compute by its total work — the
	// bounds' one compute floor.
	work costmodel.WorkLB

	perTensor  [][][]int
	live       [][]int // live[ti]: the perTensor[ti] indices that alone pass padding under the current Fop
	restMin    []int64 // restMin[ti]: min footprint of tensors ti.. under the current Fop
	leavesFrom []int   // leavesFrom[ti]: complete assignments below a fixed tensor ti

	// Leaf scratch: choice[ti] is the combo the recursion has fixed for
	// tensor ti; consider copies a priced leaf's rows into the
	// append-only arena (never reused: the shard's candidates outlive
	// the worker's next shard).
	choice   [][]int
	ftsArena [][]int

	// Cancellation plumbing: ctx is polled every leafCheckInterval leaf
	// visits (ctx.Err() is too costly per leaf); cancelled is the
	// search-wide flag that fans one worker's observation out to the
	// rest, and stop unwinds this worker's recursion.
	ctx        context.Context
	cancelled  *atomic.Bool
	stop       bool
	sinceCheck int
}

// leafCheckInterval is how many leaf visits pass between ctx polls: low
// enough that cancellation lands within microseconds of work, high
// enough that the poll never shows up in BenchmarkColdSearch.
const leafCheckInterval = 256

// checkCancel is the every-N-leaves cancellation probe. It returns true
// once the search is cancelled, after which the worker's recursion
// unwinds without visiting further leaves.
func (w *searchWorker) checkCancel() bool {
	if w.stop {
		return true
	}
	if w.sinceCheck++; w.sinceCheck >= leafCheckInterval {
		w.sinceCheck = 0
		if w.cancelled.Load() || w.ctx.Err() != nil {
			w.cancelled.Store(true)
			w.stop = true
		}
	}
	return w.stop
}

// ftChoiceSet is one temporal-factor table entry, shared read-only by
// every search of its Searcher (see ftMemo).
type ftChoiceSet struct {
	combos    [][]int
	truncated bool
	maxProd   int // max ∏ft over combos, for the remaining-footprint bound
}

func newSearchWorker(s *Searcher, e *expr.Expr, pred costmodel.Predictor, table *ftTable, seed map[kernel.Task]float64) *searchWorker {
	tensors := e.Tensors()
	nt := len(tensors)
	w := &searchWorker{
		s: s, e: e, tensors: tensors, table: table,
		ctx: context.Background(), cancelled: new(atomic.Bool),
		sketch:     core.NewPlanSketch(e, s.Cfg),
		perTensor:  make([][][]int, nt),
		live:       make([][]int, nt),
		restMin:    make([]int64, nt+1),
		leavesFrom: make([]int, nt),
		choice:     make([][]int, nt),
	}
	w.sketch.PaddingMin = s.Cons.PaddingMin
	w.pred, _ = memoize(pred, seed)
	w.work = costmodel.WorkFloor(pred)
	return w
}

// memoize wraps an opaque custom cost function in a memoPred seeded
// with a copy of seed, and returns the memo too, so a kernel task the
// ordering pass or an earlier leaf priced is never predicted again.
// Fitted and calibrated models are 4-term dot products, cheaper than
// the memo's hash: they are returned as they are.
func memoize(pred costmodel.Predictor, seed map[kernel.Task]float64) (costmodel.Predictor, map[kernel.Task]float64) {
	switch pred.(type) {
	case *costmodel.Model, *costmodel.CalibratedModel:
		return pred, nil
	}
	memo := make(map[kernel.Task]float64, len(seed))
	maps.Copy(memo, seed)
	return &memoPred{memo: memo, pred: pred}, memo
}

// memoPred wraps a predictor with a single-goroutine memo keyed by the
// kernel task. Custom cost functions must therefore be deterministic;
// the memo guarantees identical floats for identical tasks, which the
// bit-identical plan selection relies on.
type memoPred struct {
	memo map[kernel.Task]float64
	pred costmodel.Predictor
}

func (m *memoPred) Predict(t kernel.Task) float64 {
	if ns, ok := m.memo[t]; ok {
		return ns
	}
	ns := m.pred.Predict(t)
	m.memo[t] = ns
	return ns
}

// ftNoSplit is the single "no temporal partitioning" choice, shared
// read-only.
var ftNoSplit = [][]int{nil}

// processFop enumerates and evaluates every temporal-factor assignment
// under one Fop. The output tensor never takes temporal factors. The
// recursion fixes one tensor's factors at a time on the incremental
// sketch, and cuts the subtree below a prefix when
//
//   - the prefix is invalid for every completion or already violates
//     the padding constraint (both decided by Fix; combos that fail
//     padding on their own are dropped from the loop once per Fop), or
//     its memory lower bound exceeds core memory (all deterministic:
//     the skipped leaves could never have passed the filters), or
//   - the prefix's admissible (memory, time) lower bounds are already
//     dominated by the running frontier (counted in CutSubtrees /
//     CutLeaves: those leaves could never have entered the Pareto set).
//
// The last input's combos are screened before Fix: each is bounded
// from the fixed prefix (core.PlanSketch.Screen), and only the ones the
// frontier does not dominate are fixed and finished. The leaves kept
// reach the frontier in one write when the shard ends
// (pruneFrontier.add).
func (w *searchWorker) processFop(fop []int, out *fopShard, pf *pruneFrontier) {
	s := w.s
	last := len(w.tensors) - 1
	if !w.sketch.Begin(fop) {
		return
	}
	// Remaining-footprint suffix sums and subtree leaf counts: restMin
	// is the admissible minimum per-core footprint of the not-yet-fixed
	// tensors, leavesFrom sizes the subtree a cut skips.
	w.restMin[len(w.tensors)] = 0
	leaves := 1
	for ti := last; ti >= 0; ti-- {
		maxSplit := 1
		w.perTensor[ti] = ftNoSplit
		if ti != last {
			set := w.table.sets[ti][w.sketch.ShareP(ti)]
			w.perTensor[ti] = set.combos
			maxSplit = set.maxProd
		}
		w.restMin[ti] = w.restMin[ti+1] + w.sketch.TensorMinBytes(ti, maxSplit)
		w.leavesFrom[ti] = leaves
		leaves *= len(w.perTensor[ti])
	}
	// Fop-level bound: the empty prefix already prices the minimum
	// footprint of every tensor, the all-reduce/sync floor and (with a
	// work floor) the whole unpadded sub-operator's compute.
	if w.cutPrefix(0, leaves, out, pf) {
		return
	}
	// The recursion visits only the live combos; leavesFrom, the leaf
	// index and CutLeaves keep counting over the full table, so every
	// counter and the merge order are those of the full enumeration.
	for ti := range w.live {
		w.live[ti] = w.live[ti][:0]
		for ci, choice := range w.perTensor[ti] {
			if w.sketch.FactorsPadOK(ti, choice) {
				w.live[ti] = append(w.live[ti], ci)
			}
		}
	}
	coreMem := int64(s.Spec.CoreMemBytes)
	screened := last - 1 // the last input: each combo is screened before it is fixed
	var rec func(ti int)
	rec = func(ti int) {
		if ti == len(w.tensors) {
			w.consider(fop, out, pf)
			return
		}
		for _, ci := range w.live[ti] {
			// every screened combo is a leaf visit, cut or not: the
			// cancellation cadence counts them all
			if ti == screened && w.checkCancel() || w.stop {
				return // cancelled: unwind without visiting further leaves
			}
			choice := w.perTensor[ti][ci]
			w.choice[ti] = choice
			if ti == screened {
				out.screened++
				mem, lb := w.sketch.Screen(choice)
				if mem > coreMem {
					continue // the leaf fails the memory filter
				}
				if pf.dominated(mem, lb) {
					out.cutSubtrees++ // a subtree of one leaf
					out.cutLeaves++
					continue
				}
			}
			if !w.sketch.Fix(choice) {
				continue // invalid or over-padded for every completion; nothing enters Filtered
			}
			if w.cutPrefix(ti+1, w.leavesFrom[ti], out, pf) {
				w.sketch.Unfix()
				continue
			}
			rec(ti + 1)
			w.sketch.Unfix()
		}
	}
	rec(0)
	if !w.stop {
		var pruned int
		out.cands, pruned = pf.add(out.cands...)
		out.pruned += pruned
	}
}

// cutPrefix bounds the leaves below the sketch's prefix (ti is the next
// tensor to fix) and reports whether the subtree can be skipped: its
// memory bound exceeds core memory, or the frontier dominates it. A
// single leaf is left to the screen, except where only the last input
// remains: there the prefix begins the screen, whose terms are the bound.
func (w *searchWorker) cutPrefix(ti, leaves int, out *fopShard, pf *pruneFrontier) bool {
	spec, coreMem := w.s.CM.Spec, int64(w.s.Spec.CoreMemBytes)
	var memLB int64
	var timeLB float64
	switch {
	case ti == len(w.tensors)-2:
		memLB, timeLB = w.sketch.BeginScreen(spec, w.work, w.restMin[ti]-w.restMin[ti+1])
	case leaves > 1:
		memLB, timeLB = w.sketch.PartialMemLB(w.restMin[ti]), w.sketch.PartialTimeLB(spec, w.work)
	default:
		return false
	}
	if memLB > coreMem {
		return true
	}
	if pf.dominated(memLB, timeLB) {
		out.cutSubtrees++
		out.cutLeaves += leaves
		return true
	}
	return false
}

// consider evaluates the leaf the recursion has fully fixed on the
// sketch (Fix already decided padding on the prefix): finished from that
// prefix, filtered on core memory, priced, then appended to the shard as
// its partition decisions plus estimate — unless the frontier already
// dominates it. The merge builds a Plan only for the candidates it keeps.
func (w *searchWorker) consider(fop []int, out *fopShard, pf *pruneFrontier) {
	out.finished++
	if !w.sketch.Finish() {
		return
	}
	if w.sketch.MemPerCore > int64(w.s.Spec.CoreMemBytes) {
		out.memRejects++
		return
	}
	out.filtered++
	est := w.sketch.Estimate(w.s.CM.Spec, w.pred)
	if pf.dominated(est.MemPerCore, leafBound(est)) {
		out.pruned++
		return
	}
	n := len(w.ftsArena)
	w.ftsArena = append(w.ftsArena, w.choice...)
	fts := w.ftsArena[n:len(w.ftsArena):len(w.ftsArena)]
	out.cands = append(out.cands, Candidate{Est: est, fop: fop, fts: fts})
}

// leafBound is a priced leaf's pruning bound: its TotalNs scaled down by
// 1e-9, so a leaf is pruned only by a strictly faster candidate and
// never by its exact (memory, time) twin — the tie the enumeration-order
// merge must decide.
func leafBound(est core.Estimate) float64 { return est.TotalNs * (1 - 1e-9) }

// axisCandidates returns the Fop values considered for one axis: exact
// divisors of the axis length (no padding), powers of two, and divisors
// of the core count (which let products land on the chip exactly), all
// subject to the padding constraint.
func (s *Searcher) axisCandidates(length int) []int {
	limit := mathutil.Min(length, s.Spec.Cores)
	set := map[int]bool{1: true, limit: true}
	for _, d := range mathutil.DivisorsCached(length) {
		if d <= limit {
			set[d] = true
		}
	}
	for v := 1; v <= limit; v *= 2 {
		set[v] = true
	}
	for _, d := range mathutil.DivisorsCached(s.Spec.Cores) {
		if d <= limit {
			set[d] = true
		}
	}
	out := make([]int, 0, len(set))
	for v := range set {
		if s.axisPaddingOK(length, v) {
			out = append(out, v)
		}
	}
	sort.Ints(out)
	return out
}

func (s *Searcher) axisPaddingOK(length, f int) bool {
	padded := mathutil.CeilDiv(length, f) * f
	return float64(length)/float64(padded) >= s.Cons.PaddingMin
}

// enumerateFops lists the operator partition factors passing the
// parallelism constraint.
func (s *Searcher) enumerateFops(e *expr.Expr) [][]int {
	var out [][]int
	s.walkFops(e, func(fop []int) {
		out = append(out, append([]int(nil), fop...))
	})
	return out
}

// walkFops runs fn for every operator partition factor passing the
// parallelism constraint, in enumeration order; fop is borrowed (fn
// must copy to retain). Gather axes are never spatially partitioned
// (the table shards temporally instead). FopCount walks without
// materializing, so the admission-cost pre-pass allocates nothing.
func (s *Searcher) walkFops(e *expr.Expr, fn func(fop []int)) {
	cands := make([][]int, len(e.Axes))
	for a, ax := range e.Axes {
		if ax.Kind == expr.Gather {
			cands[a] = []int{1}
			continue
		}
		cands[a] = s.axisCandidates(ax.Size)
	}
	// pass 1: the maximum achievable core count over the candidate grid
	maxProd := 1
	var walk func(a, prod int)
	walk = func(a, prod int) {
		if prod > maxProd {
			maxProd = prod
		}
		if a == len(cands) {
			return
		}
		for _, v := range cands[a] {
			if prod*v > s.Spec.Cores {
				continue
			}
			walk(a+1, prod*v)
		}
	}
	walk(0, 1)

	minProd := int(s.Cons.ParallelismMin * float64(maxProd))
	fop := make([]int, len(cands))
	var gen func(a, prod int)
	gen = func(a, prod int) {
		if a == len(cands) {
			if prod >= minProd {
				fn(fop)
			}
			return
		}
		// prune: even the largest remaining factors cannot reach minProd
		rest := 1
		for b := a; b < len(cands); b++ {
			rest *= cands[b][len(cands[b])-1]
			if prod*rest >= minProd {
				break
			}
		}
		if prod*rest < minProd {
			return
		}
		for _, v := range cands[a] {
			if prod*v > s.Spec.Cores {
				continue
			}
			fop[a] = v
			gen(a+1, prod*v)
		}
	}
	gen(0, 1)
}

// ftChoices lists the temporal factor vectors of one tensor: products of
// divisors of the sharing degree distributed over the tensor's
// single-axis stride-1 dims. When the space exceeds MaxFtCombos it is
// subsampled evenly across the replication spectrum (sorted by ∏ft), so
// both the fully replicated and the fully partitioned layouts survive —
// the inter-operator scheduler needs the extremes. The second return
// reports whether any cap truncated the enumeration.
func (s *Searcher) ftChoices(tr expr.TensorRef, share int) ([][]int, bool) {
	nd := len(tr.Dims)
	if share <= 1 {
		return ftNoSplit, false
	}
	eligible := make([]bool, nd)
	for d, dim := range tr.Dims {
		eligible[d] = !dim.Compound() && dim.Terms[0].Stride == 1
	}
	const hardCap = 4096
	capped := false
	var out [][]int
	ft := make([]int, nd)
	for i := range ft {
		ft[i] = 1
	}
	var rec func(d, rem int)
	rec = func(d, rem int) {
		if len(out) >= hardCap {
			// every pending call would yield at least one more vector
			capped = true
			return
		}
		if d == nd {
			out = append(out, append([]int(nil), ft...))
			return
		}
		if !eligible[d] {
			rec(d+1, rem)
			return
		}
		for _, v := range mathutil.DivisorsCached(rem) {
			ft[d] = v
			rec(d+1, rem/v)
		}
		ft[d] = 1
	}
	rec(0, share)
	m := s.Cons.MaxFtCombos
	if m <= 0 || len(out) <= m {
		return out, capped
	}
	prods := make([]int, len(out))
	for i := range out {
		prods[i] = mathutil.Prod(out[i]...)
	}
	sort.Sort(&ftOrder{vecs: out, prods: prods})
	if m == 1 {
		return out[:1], true // the fully replicated extreme
	}
	// evenly spaced integer indices: strictly increasing (the stride
	// (len-1)/(m-1) is ≥ 1 here), so exactly m distinct entries are kept
	// and both extremes survive — the budget is fully used
	kept := make([][]int, m)
	last := len(out) - 1
	for i := range kept {
		kept[i] = out[i*last/(m-1)]
	}
	return kept, true
}

// ftOrder sorts temporal-factor vectors by ∏ft with a lexicographic
// tie-break: a total order, so subsampling is deterministic across runs.
type ftOrder struct {
	vecs  [][]int
	prods []int
}

func (o *ftOrder) Len() int { return len(o.vecs) }
func (o *ftOrder) Swap(i, j int) {
	o.vecs[i], o.vecs[j] = o.vecs[j], o.vecs[i]
	o.prods[i], o.prods[j] = o.prods[j], o.prods[i]
}
func (o *ftOrder) Less(i, j int) bool {
	if o.prods[i] != o.prods[j] {
		return o.prods[i] < o.prods[j]
	}
	for d := range o.vecs[i] {
		if o.vecs[i][d] != o.vecs[j][d] {
			return o.vecs[i][d] < o.vecs[j][d]
		}
	}
	return false
}
