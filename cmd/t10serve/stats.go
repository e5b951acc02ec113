package main

import (
	"encoding/json"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/plancache"
)

// counter is one cumulative server counter. The handlers Add to it and
// /stats encodes it where it stands, so a counter's name is declared in
// exactly one struct.
type counter struct{ atomic.Int64 }

func (c *counter) MarshalJSON() ([]byte, error) {
	return strconv.AppendInt(nil, c.Load(), 10), nil
}

// counters is the serving ledger behind /stats.
type counters struct {
	InFlight     counter `json:"in_flight"` // requests compiling or queued for a slot (±1 per request)
	Completed    counter `json:"completed"` // 200s served
	Rejected     counter `json:"rejected"`  // 429s: admission queue full
	Cancelled    counter `json:"cancelled"` // 503s: deadline expired / client gone mid-compile
	EncodeErrors counter `json:"encode_errors"`

	// cost-weighted admission over the 200s (not the 429s): weight-0
	// cache probes bypassed the budget, heavy requests (> 1 slot)
	// reserved several slots' worth of it
	ProbeRequests  counter `json:"probe_requests"`
	HeavyRequests  counter `json:"heavy_requests"`
	WeightAdmitted counter `json:"weight_admitted"` // total slots charged

	// cache routes: one count per unique operator search across every 200
	RouteMemory     counter `json:"route_memory"`
	RouteDisk       counter `json:"route_disk"`
	RouteRemote     counter `json:"route_remote"`
	RouteFlightWait counter `json:"route_singleflight"`
	RouteCold       counter `json:"route_cold"`

	// operator fusion across every 200 (non-zero only with -fusion):
	// groups the pass formed and source ops folded into them
	FusedGroups counter `json:"fused_groups"`
	FusedOps    counter `json:"fused_ops"`

	// multi-chip scale-out: sharded 200s served, pipeline stages in
	// their winning partitions, chips those partitions occupied
	ShardedCompiles counter `json:"sharded_compiles"`
	ShardedStages   counter `json:"sharded_stages"`
	ShardedChips    counter `json:"sharded_chips"`
}

// planCounters is this replica's peer-facing /plans serve ledger.
type planCounters struct {
	PlanGets       counter `json:"plan_gets"`
	PlanGetMisses  counter `json:"plan_get_misses"`
	PlanPuts       counter `json:"plan_puts"`
	PlanPutRejects counter `json:"plan_put_rejects"`
}

// refitCounters is the calibration loop's ledger: compiler generations
// redeployed, and rebuilds that errored (the previous fit kept serving).
type refitCounters struct {
	Refits     counter `json:"refits"`
	RefitFails counter `json:"refit_fails"`
}

// latRingSize is how many recent requests the /stats percentiles
// cover: enough that p99 is meaningful, small enough that a sort per
// /stats read is nothing.
const latRingSize = 512

// latRing is a fixed-size ring of recent stage durations (µs). One
// mutex-guarded write per request per stage; /stats copies and sorts,
// and encodes the ring as its percentiles.
type latRing struct {
	mu   sync.Mutex
	buf  [latRingSize]int64
	next int
	n    int
}

func (r *latRing) add(d time.Duration) {
	us := d.Microseconds()
	r.mu.Lock()
	r.buf[r.next] = us
	r.next = (r.next + 1) % latRingSize
	if r.n < latRingSize {
		r.n++
	}
	r.mu.Unlock()
}

// percentileJSON is one stage's latency summary (µs): percentile p is
// the sorted sample at index ⌊p·(n−1)⌋, not nearest rank (⌈p·n⌉−1).
type percentileJSON struct {
	P50Us   int64 `json:"p50_us"`
	P95Us   int64 `json:"p95_us"`
	P99Us   int64 `json:"p99_us"`
	Samples int   `json:"samples"`
}

func (r *latRing) percentiles() percentileJSON {
	// allocate the snapshot before taking the lock: the ring is written
	// on every request, and an allocation (with a possible GC assist)
	// inside the critical section stalls them all
	vals := make([]int64, 0, latRingSize)
	r.mu.Lock()
	vals = append(vals, r.buf[:r.n]...)
	r.mu.Unlock()
	if len(vals) == 0 {
		return percentileJSON{}
	}
	slices.Sort(vals)
	at := func(p float64) int64 {
		i := int(p * float64(len(vals)-1))
		return vals[i]
	}
	return percentileJSON{
		P50Us:   at(0.50),
		P95Us:   at(0.95),
		P99Us:   at(0.99),
		Samples: len(vals),
	}
}

func (r *latRing) MarshalJSON() ([]byte, error) { return json.Marshal(r.percentiles()) }

// latencyRings holds the per-stage rings of the last latRingSize
// requests.
type latencyRings struct {
	AdmissionWait latRing `json:"admission_wait"`
	CacheProbe    latRing `json:"cache_probe"`
	ColdSearch    latRing `json:"cold_search"`
	Reconcile     latRing `json:"reconcile"`
	Wall          latRing `json:"wall"`
}

// statsView is the /stats payload: the live ledgers, embedded by
// reference so they are encoded where the handlers increment them, next
// to the gauges read for this response.
type statsView struct {
	Budget      int `json:"budget"`       // shared worker budget (slots)
	BusyWorkers int `json:"busy_workers"` // slots held right now
	Queued      int `json:"queued"`       // requests waiting for a slot
	*counters

	// detached compiles: cancelled requests still running in the
	// background (gauge) and cancellations the cap degraded to the plain
	// kind (cumulative)
	DetachedActive   int64 `json:"detached_active"`
	DetachedRejected int64 `json:"detached_rejected"`

	Latency *latencyRings `json:"latency"` // per-stage percentiles

	// Remote is the fleet tier's health: client-side fetch/publish
	// counters with per-peer breaker states, plus this replica's
	// peer-facing /plans serve ledger (absent standalone).
	Remote *remoteView `json:"remote,omitempty"`

	// Calibration is the online cost-model refinement loop's state
	// (absent unless the server runs with -calibrate).
	Calibration *calibrationView `json:"calibration,omitempty"`
}

type remoteView struct {
	plancache.RemoteStats
	*planCounters
}

// calibrationView is the /stats calibration section: how many samples
// the search tap has collected, which fit generation is serving,
// and the refit ledger.
type calibrationView struct {
	Samples      uint64  `json:"samples"`         // lifetime samples recorded by the tap
	RingLen      int     `json:"ring_len"`        // samples currently held (≤ ring capacity)
	FitVersion   int     `json:"fit_version"`     // 0 = shipped (profile-time) fit
	MaxOverEstNs float64 `json:"max_over_est_ns"` // worst observed over-estimate: the refit's drift gauge
	*refitCounters

	// Residuals is the serving fit's worst over-estimate per kernel
	// kind (ns) — which operator families the analytic model misprices
	// most.
	Residuals map[string]float64 `json:"residuals,omitempty"`
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.methodNotAllowed(w, http.MethodGet)
		return
	}
	v := statsView{
		Budget:           s.pool.Cap(),
		BusyWorkers:      s.pool.InUse(),
		Queued:           s.pool.Waiting(),
		counters:         &s.stats,
		DetachedActive:   s.detachLimit.Active(),
		DetachedRejected: s.detachLimit.Rejected(),
		Latency:          &s.lat,
	}
	if s.remote != nil {
		v.Remote = &remoteView{RemoteStats: s.remote.Stats(), planCounters: &s.plans}
	}
	if s.calibRing != nil {
		cv := &calibrationView{
			Samples:       s.calibRing.Total(),
			RingLen:       s.calibRing.Len(),
			refitCounters: &s.refit,
		}
		if cal, ok := s.compiler().Calibration(); ok {
			cv.FitVersion = cal.Version
			cv.MaxOverEstNs = cal.MaxOverEstNs
			cv.Residuals = cal.Residuals
		}
		v.Calibration = cv
	}
	s.writeJSON(w, &v)
}
