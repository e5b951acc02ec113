package t10

import (
	"time"

	"repro/internal/search"
)

// TelemetryLevel selects how much per-request telemetry a compile
// collects; see WithTelemetry. The zero value is TelemetryOff so the
// struct literal Telemetry{} is honest, but requests default to
// TelemetryBasic — the production-safe level is cheap enough to ride
// every request (the cold-search benchmark gates it at noise level).
type TelemetryLevel int

const (
	// TelemetryOff collects nothing: no collector is allocated and the
	// search runs exactly the pre-telemetry code path.
	TelemetryOff TelemetryLevel = iota

	// TelemetryBasic — the default — records per-stage wall times, cache
	// routes, the admission weight charged and the search-space
	// counters (filtered/priced/pruned/seeded, subtree cuts) of the cold
	// searches' shard merges.
	TelemetryBasic
)

// DebugLevel selects the opt-in search trace; see WithDebug. Debug is
// separate from TelemetryLevel because it is priced differently: trace
// events allocate and format strings, so they are development
// observability, never a production default.
type DebugLevel int

const (
	// DebugOff records no trace events (the default).
	DebugOff DebugLevel = iota

	// DebugSearch records the cold searches' trace — enumeration start,
	// frontier seeding, per-shard merge accounting, completion — as
	// Telemetry.DebugEvents.
	DebugSearch
)

// Telemetry is the structured observability record of one Compile or
// Search request: where its wall time went, how its operator searches
// were answered, and what it was charged at admission.
//
// The four stage durations are disjoint phases of the request's wall
// clock, so their sum never exceeds Wall — the serving layer's soak
// test asserts exactly that invariant:
//
//   - AdmissionWait: queued in the shared worker budget before any work
//     (zero on private pools and the weight-0 fast path).
//   - ColdSearch: the operator-search phase. For a model compile this
//     is the wall time of the concurrent unique-operator loop — cache
//     probes included, since concurrent per-operator durations do not
//     decompose into disjoint wall time; the route counts say how much
//     of the phase was probes vs. enumeration. For a single-operator
//     Search it is the cold enumeration alone.
//   - CacheProbe: for a Search, the memory/disk probe (and any wait on
//     a deduplicated in-flight search); for a model compile, the
//     assembly phase that hands every op its search's result — no cache
//     is touched there, so it is near zero.
//   - Reconcile: the inter-operator memory reconciliation (§4.3.2);
//     zero for Search.
//
// A sharded compile carries the three compile stages summed over the
// stage compiles its partition search ran, one after another.
type Telemetry struct {
	// Level and Debug record what was collected, so a reader can tell a
	// genuine zero from "not measured".
	Level TelemetryLevel
	Debug DebugLevel

	AdmissionWait time.Duration
	CacheProbe    time.Duration
	ColdSearch    time.Duration
	Reconcile     time.Duration

	// Wall is the request's total in-compiler time, admission included.
	Wall time.Duration

	// AdmissionWeight is the worker-budget slots actually charged after
	// clamping (0 on private pools and the cache-probe fast path).
	AdmissionWeight int

	// Cache routes: how each unique operator search was answered (one
	// count per search — for a model compile they sum to the unique-op
	// count).
	RouteMemory     int
	RouteDisk       int
	RouteRemote     int
	RouteFlightWait int
	RouteCold       int

	// Fusion outcome of this compile (WithFusion): FusedGroups is the
	// number of multi-op groups the pass formed, FusedOps the source
	// operators folded into them. Zero when fusion was off or nothing
	// matched a rule; always zero for a single-operator Search.
	FusedGroups int
	FusedOps    int

	// Search-space counters summed over this request's cold searches:
	// the Fig 18 accounting of the work this
	// request actually performed — cached answers contribute nothing.
	Filtered    int
	Priced      int
	Pruned      int
	Seeded      int
	CutSubtrees int
	CutLeaves   int

	// DebugEvents is the opt-in search trace (WithDebug(DebugSearch));
	// nil otherwise.
	DebugEvents []search.DebugEvent
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

// newCollector builds the per-request search collector for the
// resolved options, or nil when telemetry is off (the search then runs
// the exact pre-telemetry code path).
func (ro *reqOptions) newCollector() *search.Collector {
	if ro.telemetry <= TelemetryOff {
		return nil
	}
	return search.NewCollector(ro.debug > DebugOff)
}

// fill copies the collector's aggregates into the telemetry record:
// routes, space counters, and trace events when debug ran. Stage
// durations are the caller's job — they are phase walls, not collector
// sums.
func (t *Telemetry) fill(col *search.Collector) {
	if col == nil {
		return
	}
	tot := col.Snapshot()
	t.RouteMemory = int(tot.Routes[search.RouteMemory])
	t.RouteDisk = int(tot.Routes[search.RouteDisk])
	t.RouteRemote = int(tot.Routes[search.RouteRemote])
	t.RouteFlightWait = int(tot.Routes[search.RouteFlightWait])
	t.RouteCold = int(tot.Routes[search.RouteCold])
	t.FusedGroups = int(tot.FusedGroups)
	t.FusedOps = int(tot.FusedOps)
	t.Filtered = int(tot.Filtered)
	t.Priced = int(tot.Priced)
	t.Pruned = int(tot.Pruned)
	t.Seeded = int(tot.Seeded)
	t.CutSubtrees = int(tot.CutSubtrees)
	t.CutLeaves = int(tot.CutLeaves)
	t.DebugEvents = col.Events()
}
