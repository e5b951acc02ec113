package search

import (
	"context"
	"sync"
	"time"
)

// Counts is one request's search accounting: how each operator search
// was answered (the five cache routes, in probe order), what the
// compile's fusion pass formed, and the Fig 18 space counters of the
// cold searches the request ran. It is declared once — the t10
// telemetry record embeds it and the serving layer encodes it under
// these JSON names — so a request that looks slow from the outside
// decomposes into "N memory hits, one cold search" from its routes.
type Counts struct {
	// Cache routes, one count per operator search.
	RouteMemory     int `json:"route_memory"`       // the in-memory plan cache
	RouteDisk       int `json:"route_disk"`         // the on-disk record store (read, verified, decoded, rebuilt)
	RouteRemote     int `json:"route_remote"`       // a fleet peer's plan store (fetched, provenance-verified, rebuilt)
	RouteFlightWait int `json:"route_singleflight"` // a concurrent in-flight search for the same key
	RouteCold       int `json:"route_cold"`         // a fresh Pareto enumeration

	// Fusion outcome, reported by the compile layer (the search itself
	// is fusion-agnostic): multi-op groups formed and the source
	// operators folded into them.
	FusedGroups int `json:"fused_groups,omitempty"`
	FusedOps    int `json:"fused_ops,omitempty"`

	// Spaces counters summed over the cold searches only — a cached
	// answer's counters describe the original search, not work this
	// request performed.
	Filtered int `json:"filtered,omitempty"`
	Priced   int `json:"priced,omitempty"`
	Pruned   int `json:"pruned,omitempty"`
	// Deprecated: always 0, as Spaces.Seeded is; the wire key stays
	// until the bench re-baseline (ROADMAP 8(d)).
	Seeded      int `json:"seeded,omitempty"`
	CutSubtrees int `json:"cut_subtrees,omitempty"`
	CutLeaves   int `json:"cut_leaves,omitempty"`
}

// route is a way SearchKeyed answers without enumerating; a cold
// search reports through Collector.searched instead.
type route uint8

const (
	routeMemory route = iota
	routeDisk
	routeRemote
	routeFlightWait
)

// Collector aggregates one request's search telemetry: its Counts plus
// the time spent probing cache layers and enumerating cold. It travels
// by context (WithCollector / CollectorFrom) because the searcher is
// shared across requests. Every method is safe for concurrent use from
// the op-search worker pool and a no-op on a nil collector; the zero
// value is ready to use.
//
// Nothing here touches the hot leaf path: workers count into their
// private fopShard structs, the deterministic merge aggregates them
// into Spaces, and the collector takes one lock per operator search
// after that.
type Collector struct {
	mu    sync.Mutex
	n     Counts
	probe time.Duration // cache probes: memory Get, disk read+decode, flight waits
	cold  time.Duration // cold enumerations (the searches' own Elapsed)
}

// answered records one operator search answered by a cache route
// after probe time spent finding it.
func (c *Collector) answered(r route, probe time.Duration) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.probe += probe
	switch r {
	case routeMemory:
		c.n.RouteMemory++
	case routeDisk:
		c.n.RouteDisk++
	case routeRemote:
		c.n.RouteRemote++
	case routeFlightWait:
		c.n.RouteFlightWait++
	}
	c.mu.Unlock()
}

// searched records one cold search: the probe time spent missing every
// cache layer, the enumeration's own time and its merged counters.
func (c *Collector) searched(probe time.Duration, r *Result) {
	if c == nil {
		return
	}
	sp := &r.Spaces
	c.mu.Lock()
	c.probe += probe
	c.cold += r.Elapsed
	c.n.RouteCold++
	c.n.Filtered += sp.Filtered
	c.n.Priced += sp.Priced
	c.n.Pruned += sp.Pruned
	c.n.Seeded += sp.Seeded
	c.n.CutSubtrees += sp.CutSubtrees
	c.n.CutLeaves += sp.CutLeaves
	c.mu.Unlock()
}

// AddFusion records the outcome of one graph-fusion pass: groups is the
// number of multi-op fused groups, ops the source operators folded into
// them.
func (c *Collector) AddFusion(groups, ops int) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.n.FusedGroups += groups
	c.n.FusedOps += ops
	c.mu.Unlock()
}

// Snapshot reads the aggregates: the counts, the summed probe time and
// the summed cold-enumeration time. A nil collector reads zero.
func (c *Collector) Snapshot() (n Counts, probe, cold time.Duration) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n, c.probe, c.cold
}

// collectorKey carries a *Collector through a context.
type collectorKey struct{}

// WithCollector attaches a per-request telemetry collector to the
// context; every SearchOpCtx under it reports its route, timings and —
// for cold searches — merged shard counters into it.
func WithCollector(ctx context.Context, c *Collector) context.Context {
	if c == nil {
		return ctx
	}
	return context.WithValue(ctx, collectorKey{}, c)
}

// CollectorFrom extracts the context's collector, or nil (collection
// off).
func CollectorFrom(ctx context.Context) *Collector {
	c, _ := ctx.Value(collectorKey{}).(*Collector)
	return c
}
