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
	mathbits "math/bits"
	"runtime"
	"slices"
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
}

// DefaultConstraints returns the paper's example settings.
func DefaultConstraints() Constraints {
	return Constraints{ParallelismMin: 0.9, PaddingMin: 0.9}
}

// maxFtCombos caps the temporal-factor combinations considered per
// tensor per Fop (a safety valve, generous for every benchmark model).
// Capped enumerations are counted in Spaces.TruncatedFtCombos — no
// silent truncation. The key head writes it (ft=64), so changing it
// re-addresses every plan record.
const maxFtCombos = 64

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
	// enumerations that hit a cap (the fixed 64-combination subsample
	// or the 4096-vector enumeration cap), summed over all Fop candidates — surfaced so a
	// capped search is never silent. Deterministic: each Fop shard
	// counts its sets before any cut, so neither pruning nor scheduling
	// can hide a capped enumeration.
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
// in-memory plan cache right now: one Key plus a stat-free Peek, an
// observation, not a use. It ignores the disk layer (a disk hit still
// costs a read and a decode, which is not free under load). Advisory: a
// concurrent eviction can invalidate the answer before the search runs.
//
// Deprecated: no program code calls it; t10's cost estimate peeks the
// cache by the key it already holds. Kept because the benchmark harness
// times it (search.cached_probe_us); it goes with the bench re-baseline
// (ROADMAP 8(d)).
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
	truncated   int // input choice sets capped under this Fop
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
		w := newSearchWorker(s, e, pred, seed)
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
		r.Spaces.TruncatedFtCombos += sh.truncated
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

// ftMemo memoises temporal-factor choice sets across the searches of one
// Searcher. A set is a pure function of its ftKey — no extent enters it
// — so every operator with the same sharing degree and dim shape reuses
// one, read-only, and it is the search's only temporal-factor cache:
// each shard worker reads its Fop's sets straight from it. It lives on
// the Searcher, not process-wide, so a fresh compiler's compile stays
// cold.
type ftMemo struct {
	mu    sync.Mutex
	sets  map[ftKey]*ftChoiceSet
	built int // sets enumerated, one per key: what the count guard reads
}

// ftKey is what an ftChoiceSet depends on: the sharing degree, the
// tensor's dim count and which dims may take a factor (bit d set: dim d
// is single-axis and stride 1).
type ftKey struct {
	share, dims int
	eligible    uint64
}

// ftSet returns tensor tr's choice set at sharing degree share from the
// memo, enumerating it on first use. The lock is held across the
// enumeration, so concurrent first uses of one key enumerate it once;
// shard workers take it once per Fop per input tensor, a map probe
// beside the Fop's leaves.
func (s *Searcher) ftSet(tr expr.TensorRef, share int) *ftChoiceSet {
	if len(tr.Dims) > 64 {
		return s.newFtChoiceSet(tr, share) // too many dims for the mask: unmemoised
	}
	k := ftKey{share: share, dims: len(tr.Dims)}
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
			m.sets = make(map[ftKey]*ftChoiceSet)
		}
		cs = s.newFtChoiceSet(tr, share)
		m.sets[k] = cs
		m.built++
	}
	return cs
}

// newFtChoiceSet enumerates tensor tr's choices at sharing degree share
// (ftChoices) and derives the set's bound and per-factor bitsets.
func (s *Searcher) newFtChoiceSet(tr expr.TensorRef, share int) *ftChoiceSet {
	combos, trunc := s.ftChoices(tr, share)
	set := &ftChoiceSet{combos: combos, truncated: trunc, maxProd: 1}
	words := (len(combos) + 63) / 64
	index := make(map[ftFactor]int) // into set.factors
	for ci, c := range combos {
		set.maxProd = max(set.maxProd, mathutil.Prod(c...))
		for d, f := range c {
			if f <= 1 {
				continue
			}
			k, ok := index[ftFactor{d, f}]
			if !ok {
				k = len(set.factors)
				index[ftFactor{d, f}] = k
				set.factors = append(set.factors, ftFactor{d, f})
				set.bits = append(set.bits, make([]uint64, words)...)
			}
			set.bits[k*words+ci/64] |= 1 << (ci % 64)
		}
	}
	return set
}

// searchWorkers returns the Fop shard pool width for n partition
// candidates.
func (s *Searcher) searchWorkers(n int) int {
	w := s.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return min(w, n)
}

// searchWorker holds one goroutine's scratch state: the plan sketch
// and the reusable combination buffers — nothing here allocates per
// candidate.
type searchWorker struct {
	s       *Searcher
	e       *expr.Expr
	tensors []expr.TensorRef
	sketch  *core.PlanSketch

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

	sets       []*ftChoiceSet // sets[ti]: tensor ti's choices under the current Fop
	live       [][]int        // live[ti]: the sets[ti] indices that alone pass padding under the current Fop
	liveBits   []uint64       // scratch: fillLive's over-padded combos
	restMin    []int64        // restMin[ti]: min footprint of tensors ti.. under the current Fop
	leavesFrom []int          // leavesFrom[ti]: complete assignments below a fixed tensor ti

	// Leaf scratch, emptied at each shard's start: choice[ti] is the
	// combo the recursion has fixed for tensor ti; consider appends a
	// priced leaf to cands with its rows copied into ftsArena. When the
	// shard ends, the candidates it keeps move into slices it owns.
	choice   [][]int
	cands    []Candidate
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

// ftChoiceSet is one tensor's temporal-factor choices at one sharing
// degree, shared read-only by every search of its Searcher (see ftMemo).
// Padding depends on a (dim, factor) pair alone, so the set also holds,
// per distinct factor > 1 on each dim, a bitset over the combo indices
// that take it: a Fop's live combos are every combo minus the bitsets
// of the factors that over-pad (searchWorker.fillLive).
type ftChoiceSet struct {
	combos    [][]int
	truncated bool
	maxProd   int        // max ∏ft over combos, for the remaining-footprint bound
	factors   []ftFactor // in first-use order
	bits      []uint64   // factors[k]'s combos: the k-th run of ⌈len(combos)/64⌉ words
}

// ftFactor is one temporal factor f > 1 some combo takes on dim.
type ftFactor struct{ dim, f int }

// noSplitSet is the output's one choice: no temporal factor.
var noSplitSet = &ftChoiceSet{combos: ftNoSplit, maxProd: 1}

func newSearchWorker(s *Searcher, e *expr.Expr, pred costmodel.Predictor, seed map[kernel.Task]float64) *searchWorker {
	tensors := e.Tensors()
	nt := len(tensors)
	w := &searchWorker{
		s: s, e: e, tensors: tensors,
		ctx: context.Background(), cancelled: new(atomic.Bool),
		sketch:     core.NewPlanSketch(e, s.Cfg),
		sets:       make([]*ftChoiceSet, nt),
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
	w.cands, w.ftsArena = w.cands[:0], w.ftsArena[:0]
	if !w.sketch.Begin(fop) {
		return
	}
	// Remaining-footprint suffix sums and subtree leaf counts: restMin
	// is the admissible minimum per-core footprint of the not-yet-fixed
	// tensors, leavesFrom sizes the subtree a cut skips. The capped sets
	// are counted here, before any cut: every enumerated Fop passes
	// Begin (axisCandidates applies its padding rule), so the count is
	// Reference's, whatever the frontier prunes.
	w.restMin[len(w.tensors)] = 0
	leaves := 1
	for ti := last; ti >= 0; ti-- {
		set := noSplitSet
		if ti != last {
			set = s.ftSet(w.tensors[ti], w.sketch.ShareP(ti))
			if set.truncated {
				out.truncated++
			}
		}
		w.sets[ti] = set
		w.restMin[ti] = w.restMin[ti+1] + w.sketch.TensorMinBytes(ti, set.maxProd)
		w.leavesFrom[ti] = leaves
		leaves *= len(set.combos)
	}
	// Fop-level bound: the empty prefix already prices the minimum
	// footprint of every tensor, the all-reduce/sync floor and (with a
	// work floor) the whole unpadded sub-operator's compute.
	if w.cutPrefix(0, leaves, out, pf) {
		return
	}
	// The recursion visits only the live combos; leavesFrom, the leaf
	// index and CutLeaves keep counting over the full sets, so every
	// counter and the merge order are those of the full enumeration.
	for ti := range w.live {
		w.fillLive(ti)
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
			choice := w.sets[ti].combos[ci]
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
	if w.stop {
		return
	}
	kept, pruned := pf.add(w.cands...)
	out.pruned += pruned
	if len(kept) == 0 {
		return
	}
	// the kept candidates and their rows leave the worker's scratch for
	// two slices the shard owns
	nt := len(w.tensors)
	out.cands = make([]Candidate, len(kept))
	own := make([][]int, len(kept)*nt)
	for i, c := range kept {
		c.fts = own[i*nt : (i+1)*nt : (i+1)*nt]
		copy(c.fts, kept[i].fts)
		out.cands[i] = c
	}
}

// fillLive sets live[ti] to the ascending indices of the sets[ti] combos
// whose factors all pass padding under the Begin Fop: the clear bits of
// the union of the bitsets of the (dim, factor) pairs that over-pad —
// one padding test per distinct factor, not one per combo and dim.
func (w *searchWorker) fillLive(ti int) {
	set := w.sets[ti]
	words := (len(set.combos) + 63) / 64
	fail := slices.Grow(w.liveBits[:0], words)[:words]
	clear(fail)
	for k, f := range set.factors {
		if !w.sketch.DimPadOK(ti, f.dim, f.f) {
			for i, b := range set.bits[k*words : (k+1)*words] {
				fail[i] |= b
			}
		}
	}
	live := w.live[ti][:0]
	for i, f := range fail {
		for b := ^f; b != 0; b &= b - 1 {
			if ci := i*64 + mathbits.TrailingZeros64(b); ci < len(set.combos) {
				live = append(live, ci)
			}
		}
	}
	w.live[ti], w.liveBits = live, fail
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
// prefix, filtered on core memory, priced, then appended to the worker's
// shard scratch as its partition decisions plus estimate — unless the
// frontier already dominates it. The merge builds a Plan only for the
// candidates it keeps.
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
	w.cands = append(w.cands, Candidate{Est: est, fop: fop, fts: fts})
}

// leafBound is a priced leaf's pruning bound: its TotalNs scaled down by
// 1e-9, so a leaf is pruned only by a strictly faster candidate and
// never by its exact (memory, time) twin — the tie the enumeration-order
// merge must decide.
func leafBound(est core.Estimate) float64 { return est.TotalNs * (1 - 1e-9) }

// axisCandidates returns the Fop values considered for one axis, in
// ascending order: the limit, powers of two, exact divisors of the axis
// length (no padding) and divisors of the core count (which let products
// land on the chip exactly), all subject to the padding constraint.
func (s *Searcher) axisCandidates(length int) []int {
	limit := min(length, s.Spec.Cores)
	divs := [2][]int{mathutil.DivisorsCached(length), mathutil.DivisorsCached(s.Spec.Cores)}
	out := make([]int, 0, 64+len(divs[0])+len(divs[1])) // limit, ≤ 63 powers of two, the divisors
	out = append(out, limit)
	for v := 1; v <= limit; v *= 2 {
		out = append(out, v)
	}
	for _, ds := range divs {
		for _, d := range ds {
			if d <= limit {
				out = append(out, d)
			}
		}
	}
	slices.Sort(out)
	return slices.DeleteFunc(slices.Compact(out), func(v int) bool { return !s.axisPaddingOK(length, v) })
}

func (s *Searcher) axisPaddingOK(length, f int) bool {
	padded := mathutil.CeilDiv(length, f) * f
	return float64(length)/float64(padded) >= s.Cons.PaddingMin
}

// enumerateFops lists the operator partition factors passing the
// parallelism constraint, as rows of one backing array.
func (s *Searcher) enumerateFops(e *expr.Expr) [][]int {
	var flat []int
	n := 0
	s.walkFops(e, func(fop []int) {
		flat = append(flat, fop...)
		n++
	})
	return rowsOf(flat, n, len(e.Axes))
}

// rowsOf splits flat into n rows of width w, each capped at its end.
func rowsOf(flat []int, n, w int) [][]int {
	rows := make([][]int, n)
	for i := range rows {
		rows[i] = flat[i*w : (i+1)*w : (i+1)*w]
	}
	return rows
}

// walkFops runs fn for every operator partition factor passing the
// parallelism constraint, in enumeration order; fop is borrowed (fn
// must copy to retain). Gather axes are never spatially partitioned
// (the table shards temporally instead). FopCount walks without
// materializing, so the admission-cost pre-pass allocates nothing per
// candidate.
//
// suffix[a] holds, ascending, the products ≤ Cores of one candidate per
// axis a.. (every factor is ≥ 1, so a product ≤ Cores has every prefix
// ≤ Cores too): suffix[0]'s largest is the maximum achievable core
// count, and the walk descends into a prefix only while its best
// completion within Cores still reaches the parallelism floor, so it
// visits no subtree without a Fop.
func (s *Searcher) walkFops(e *expr.Expr, fn func(fop []int)) {
	cores, na := s.Spec.Cores, len(e.Axes)
	cands := make([][]int, na)
	for a, ax := range e.Axes {
		if ax.Kind == expr.Gather {
			cands[a] = []int{1}
			continue
		}
		cands[a] = s.axisCandidates(ax.Size)
	}
	suffix := make([][]int, na+1)
	suffix[na] = []int{1}
	reach := make([]bool, cores+1) // scratch: reach[p] marks product p
	for a := na - 1; a >= 0; a-- {
		n := 0
		for _, v := range cands[a] {
			for _, q := range suffix[a+1] {
				if v*q > cores {
					break
				}
				if !reach[v*q] {
					reach[v*q], n = true, n+1
				}
			}
		}
		suffix[a] = make([]int, 0, n)
		for p, ok := range reach {
			if ok {
				suffix[a], reach[p] = append(suffix[a], p), false
			}
		}
	}
	minProd := int(s.Cons.ParallelismMin * float64(maxAtMost(suffix[0], cores)))
	fop := make([]int, na)
	var gen func(a, prod int)
	gen = func(a, prod int) {
		if a == na {
			if prod >= minProd {
				fn(fop)
			}
			return
		}
		for _, v := range cands[a] { // ascending
			p := prod * v
			if p > cores {
				break
			}
			if p*maxAtMost(suffix[a+1], cores/p) < minProd {
				continue // no completion within Cores reaches minProd
			}
			fop[a] = v
			gen(a+1, p)
		}
	}
	gen(0, 1)
}

// maxAtMost returns the largest element ≤ lim of the ascending set, or 0.
func maxAtMost(set []int, lim int) int {
	i, _ := slices.BinarySearch(set, lim+1)
	if i == 0 {
		return 0
	}
	return set[i-1]
}

// ftChoices lists the temporal factor vectors of one tensor: products of
// divisors of the sharing degree distributed over the tensor's
// single-axis stride-1 dims, as rows of one backing array (a set
// outlives its search on the memo, and an object per vector — thousands
// over a model set — would sit in the small size classes every later
// compile allocates from, measurably slowing warm compiles). When the
// space exceeds the fixed maxFtCombos it is subsampled evenly to that
// many vectors across the replication spectrum (ordered by ∏ft, then
// lexicographically), so both the fully replicated and the fully
// partitioned layouts survive — the inter-operator scheduler needs the
// extremes. The second return reports whether a cap truncated the
// enumeration.
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
	var flat []int
	n := 0
	ft := make([]int, nd)
	for i := range ft {
		ft[i] = 1
	}
	var rec func(d, rem int)
	rec = func(d, rem int) {
		if n >= hardCap {
			// every pending call would yield at least one more vector
			capped = true
			return
		}
		if d == nd {
			flat = append(flat, ft...)
			n++
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
	const m = maxFtCombos
	if n <= m {
		return rowsOf(flat, n, nd), capped
	}
	// Depth-first with ascending divisors is lexicographic order, so a
	// stable counting sort by ∏ft — bucketed by the product's position
	// among share's divisors — orders by ∏ft with a lexicographic
	// tie-break: a total order, so subsampling is deterministic.
	divs := mathutil.DivisorsCached(share)
	bucket := make([]int, n)
	start := make([]int, len(divs)+1)
	for i := range bucket {
		bucket[i], _ = slices.BinarySearch(divs, mathutil.Prod(flat[i*nd:(i+1)*nd]...))
		start[bucket[i]+1]++
	}
	for j := 1; j < len(start); j++ {
		start[j] += start[j-1]
	}
	sorted := make([]int, n)
	for i, j := range bucket {
		sorted[start[j]] = i
		start[j]++
	}
	// evenly spaced ranks: strictly increasing (the stride (n-1)/(m-1) is
	// ≥ 1 here), so m distinct vectors are kept, both extremes among them
	kept := make([]int, 0, m*nd)
	for i := 0; i < m; i++ {
		v := sorted[i*(n-1)/(m-1)]
		kept = append(kept, flat[v*nd:(v+1)*nd]...)
	}
	return rowsOf(kept, m, nd), true
}
