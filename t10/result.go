package t10

import (
	"time"

	"repro/internal/search"
)

// Telemetry is the structured observability record of one Compile or
// Search request: where its wall time went, how its operator searches
// were answered, and what it was charged at admission. Every request
// collects it; collection observes the search, it never steers it.
//
// The four stage durations are disjoint phases of the request's wall
// clock, so their sum never exceeds Wall — the serving layer's soak
// test asserts exactly that invariant:
//
//   - AdmissionWait: queued in the shared worker budget before any work
//     (zero on private pools and the weight-0 fast path).
//   - ColdSearch: the operator-search phase. For a model compile this
//     is the listing plus the wall time of the concurrent loop over the
//     listed searches — cache probes included, since concurrent
//     durations do not decompose into disjoint wall time; the route
//     counts say how much of it was probes. For a single-operator
//     Search it is the cold enumeration alone.
//   - CacheProbe: for a Search, the memory/disk probe (and any wait on
//     a deduplicated in-flight search); for a model compile, the
//     assembly phase that hands every op its search's result — no cache
//     is touched there, so it is near zero.
//   - Reconcile: the inter-operator memory reconciliation (§4.3.2);
//     zero for Search.
//
// A sharded compile sums the last two over its stages.
type Telemetry struct {
	AdmissionWait time.Duration
	CacheProbe    time.Duration
	ColdSearch    time.Duration
	Reconcile     time.Duration

	// Wall is the request's total in-compiler time, admission included.
	Wall time.Duration

	// AdmissionWeight is the worker-budget slots actually charged after
	// clamping (0 on private pools and the cache-probe fast path).
	AdmissionWeight int

	// Counts says how each listed operator search was answered (one
	// route per search for every request kind, sharded ones included),
	// what the fusion pass formed (WithFusion; zero when it was off and
	// for a single-operator Search), and the Fig 18 space counters of
	// the cold searches this request actually ran — cached answers
	// contribute nothing.
	search.Counts
}

// StageSum returns AdmissionWait + CacheProbe + ColdSearch + Reconcile.
// The stages are disjoint wall phases, so StageSum ≤ Wall always holds
// — the well-formedness invariant the serving soak test asserts on
// every response.
func (t *Telemetry) StageSum() time.Duration {
	return t.AdmissionWait + t.CacheProbe + t.ColdSearch + t.Reconcile
}

// CompileResult is the result-bearing form of Compile: the executable
// plus the request's telemetry. Compile itself is a thin wrapper that
// discards the telemetry.
type CompileResult struct {
	Executable *Executable
	Telemetry  Telemetry
}

// SearchResult is the result-bearing form of Search.
type SearchResult struct {
	Result    *search.Result
	Telemetry Telemetry
}
