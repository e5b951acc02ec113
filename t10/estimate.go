package t10

import "repro/internal/graph"

// CostEstimate summarizes how much search work a request would
// trigger, from cache probes and rule-filtered space sizes alone — no
// Pareto search runs. It prices every request on a shared pool (see
// Options.SharedPool): a fully cached request is nearly free, a cold
// large-model compile is not, and a load-shedding server should not
// charge them the same.
type CostEstimate struct {
	// Ops is the number of distinct operator searches the request lists
	// and runs — distinct by the searcher's cache key.
	Ops int

	// CachedOps counts unique shapes answerable from the in-memory
	// plan cache right now (a stat-free probe, plancache.Cache.Peek).
	CachedOps int

	// DiskOps counts unique shapes that miss memory but have a record
	// in the disk layer (a stat-only probe, no read): warmer than cold
	// — a read and a decode instead of a Pareto search — but not free,
	// so disk-warm requests price above fully cached ones and below
	// cold ones.
	DiskOps int

	// ColdOps counts unique shapes that would run a fresh Pareto
	// search.
	ColdOps int

	// ColdFops is the total number of rule-filtered operator partition
	// candidates across the cold shapes — the search-work proxy: every
	// partition candidate expands into its temporal-factor subtree, so
	// the count tracks how much enumeration a compile would pay.
	ColdFops int

	// Stages is the number of models the request assembles from its
	// searches: 1 for a model compile, the stage count for a sharded
	// one, 0 for a single-operator search.
	Stages int
}

// WeightFopUnit is the number of cold partition candidates that add
// one admission slot beyond the first: a single cold matmul (a few
// dozen candidates) stays near weight 1-2, while a cold multi-layer
// model climbs toward the pool capacity.
const WeightFopUnit = 64

// Weight maps the estimate onto the admission slots a request holds at
// once on a shared pool of the given capacity: 0 for fully
// memory-cached requests that assemble at most one model (the
// cache-probe fast path — skip admission entirely); 1 for requests
// whose misses are all disk-warm (a read and a decode per record) or
// that assemble several stages (one after another, on one slot);
// otherwise one slot plus one per WeightFopUnit cold partition
// candidates, clamped to the capacity so a single huge compile can
// always be admitted.
func (e CostEstimate) Weight(capacity int) int {
	if e.ColdOps == 0 {
		if e.DiskOps == 0 && e.Stages <= 1 {
			return 0
		}
		return 1
	}
	w := 1 + e.ColdFops/WeightFopUnit
	if capacity > 0 && w > capacity {
		w = capacity
	}
	return w
}

// EstimateCost predicts how much search work compiling m would
// trigger, without running any of it — the price a shared pool charges
// Compile at admission: m's search list (as Compile lists it) is probed
// against the in-memory plan cache, then the disk layer (by stat
// alone), and the cold remainder is priced by its rule-filtered
// partition-candidate count. The estimate is advisory — the cache can
// change before the compile — which is the right contract for
// admission control.
func (c *Compiler) EstimateCost(m *graph.Model) (CostEstimate, error) {
	if err := m.Validate(); err != nil {
		return CostEstimate{}, err
	}
	var l searchList
	if err := c.prepare(m, &l); err != nil {
		return CostEstimate{}, err
	}
	return c.estimate(&l), nil
}

// estimate prices a request's list: memory probe, then disk stat, then
// the cold remainder's partition-candidate count.
func (c *Compiler) estimate(l *searchList) CostEstimate {
	est := CostEstimate{Ops: len(l.searches), Stages: len(l.models)}
	cache := c.searcher.Cache()
	for _, u := range l.searches {
		if _, ok := cache.Peek(u.key); ok {
			est.CachedOps++
		} else if cache.PeekBlob(u.key) {
			est.DiskOps++
		} else {
			est.ColdOps++
			est.ColdFops += c.searcher.FopCount(u.e)
		}
	}
	return est
}
