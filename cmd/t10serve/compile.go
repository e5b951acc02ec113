package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/dtype"
	"repro/internal/expr"
	"repro/internal/graph"
	"repro/internal/models"
	"repro/internal/search"
	"repro/internal/sema"
	"repro/t10"
)

// maxBodyBytes bounds /compile request bodies; the largest legitimate
// request is a few hundred bytes of JSON.
const maxBodyBytes = 1 << 20

// maxOpDim and maxBatch bound single-op and model requests to shapes
// the device could conceivably hold, so a hostile request cannot make
// the server enumerate plans for a petabyte matmul. maxChips and
// maxMicrobatches bound the sharded outer search the same way. Its
// work grows with the stages it compiles — every (start, end, split)
// an op accepts, ~ops²/2 per split width — and its partition search
// with stages × chips per bottleneck threshold, not with the candidate
// count (~1.4e25 for ResNet's 31 ops at 64 chips).
const (
	maxOpDim        = 1 << 20
	maxBatch        = 4096
	maxChips        = 64
	maxMicrobatches = 4096
)

// compileRequest is one /compile request: either a built-in model or a
// single matmul operator spec.
type compileRequest struct {
	Model    string  `json:"model,omitempty"`
	Batch    int     `json:"batch,omitempty"`
	Simulate bool    `json:"simulate,omitempty"`
	Op       *opSpec `json:"op,omitempty"`

	// Chips > 1 partitions the model across that many chips of the
	// device generation (CompileSharded); 0 means the server's -chips
	// default. Microbatches sets the pipeline depth for sharded
	// compiles (ignored single-chip).
	Chips        int `json:"chips,omitempty"`
	Microbatches int `json:"microbatches,omitempty"`

	// what the body asks to be compiled: op for a single-operator
	// search (built by the parser), otherwise model (see build)
	op    *expr.Expr
	model *graph.Model
}

type opSpec struct {
	Name  string `json:"name"`
	M     int    `json:"m"`
	K     int    `json:"k"`
	N     int    `json:"n"`
	DType string `json:"dtype,omitempty"` // fp16 (default), fp32
}

// expr validates the spec and builds the operator expression.
func (spec *opSpec) expr() (*expr.Expr, error) {
	if spec.M <= 0 || spec.K <= 0 || spec.N <= 0 {
		return nil, fmt.Errorf("op needs positive m, k, n")
	}
	if spec.M > maxOpDim || spec.K > maxOpDim || spec.N > maxOpDim {
		return nil, fmt.Errorf("op dimensions exceed the %d limit", maxOpDim)
	}
	name := spec.Name
	if name == "" {
		name = "op"
	}
	var elem dtype.Type
	switch strings.ToLower(spec.DType) {
	case "", "fp16":
		elem = dtype.FP16
	case "fp32":
		elem = dtype.FP32
	default:
		return nil, fmt.Errorf("unsupported dtype %q", spec.DType)
	}
	return expr.MatMul(name, spec.M, spec.K, spec.N, elem), nil
}

// parseCompileRequest decodes and structurally validates one /compile
// body. It never touches the compiler — the fuzz target drives it with
// arbitrary bytes.
func parseCompileRequest(r io.Reader) (*compileRequest, error) {
	var req compileRequest
	if err := json.NewDecoder(r).Decode(&req); err != nil {
		return nil, fmt.Errorf("bad request body: %w", err)
	}
	switch {
	case req.Op != nil:
		var err error
		if req.op, err = req.Op.expr(); err != nil {
			return nil, err
		}
	case req.Model != "":
		if req.Batch > maxBatch {
			return nil, fmt.Errorf("batch %d exceeds the %d limit", req.Batch, maxBatch)
		}
		if req.Chips < 0 || req.Chips > maxChips {
			return nil, fmt.Errorf("chips %d outside [0, %d]", req.Chips, maxChips)
		}
		if req.Microbatches < 0 || req.Microbatches > maxMicrobatches {
			return nil, fmt.Errorf("microbatches %d outside [0, %d]", req.Microbatches, maxMicrobatches)
		}
	default:
		return nil, errors.New(`need "model" or "op"`)
	}
	return &req, nil
}

type opPlanJSON struct {
	Name     string  `json:"name"`
	Repeat   int     `json:"repeat"`
	Fop      []int   `json:"fop"`
	Steps    int     `json:"steps"`
	ActiveKB float64 `json:"active_kb"`
	IdleKB   float64 `json:"idle_kb"`
	EstUs    float64 `json:"est_us"`
	SetupUs  float64 `json:"setup_us"`
}

type compileResponse struct {
	Model      string         `json:"model,omitempty"`
	Batch      int            `json:"batch,omitempty"`
	Ops        int            `json:"ops"`
	CompileMs  float64        `json:"compile_ms"`
	IdleMemPct float64        `json:"idle_mem_pct"`
	LatencyMs  float64        `json:"latency_ms,omitempty"`
	Plans      []opPlanJSON   `json:"plans"`
	Telemetry  *telemetryJSON `json:"telemetry,omitempty"`

	// multi-chip scale-out (chips > 1): the winning partition, one
	// shard per pipeline stage. TransferMs/BubbleMs carry the simulated
	// interconnect and pipeline-imbalance shares ("simulate": true).
	Chips        int         `json:"chips,omitempty"`
	Microbatches int         `json:"microbatches,omitempty"`
	Shards       []shardJSON `json:"shards,omitempty"`
	TransferMs   float64     `json:"transfer_ms,omitempty"`
	BubbleMs     float64     `json:"bubble_ms,omitempty"`
}

// shardJSON is one pipeline stage of a sharded compile: which source
// ops it holds, how many chips row-split it, and its per-shard costs.
type shardJSON struct {
	Stage      int     `json:"stage"`
	StartOp    int     `json:"start_op"`
	EndOp      int     `json:"end_op"` // exclusive
	Ops        int     `json:"ops"`
	Split      int     `json:"split"` // tensor-parallel ways (chips in the stage)
	IdleMemPct float64 `json:"idle_mem_pct"`
	GatherUs   float64 `json:"gather_us,omitempty"`  // all-gather closing a split stage
	LatencyMs  float64 `json:"latency_ms,omitempty"` // simulated stage time ("simulate": true)
}

// telemetryJSON is the telemetry block every 200 carries: the
// t10.Telemetry stage walls in µs, the admission weight, and the
// request's search.Counts — cache routes, fusion outcome and the
// search-space accounting of its cold searches — under their own JSON
// names. Stage durations are disjoint phases of the request wall, so
// their sum never exceeds wall_us — the soak test asserts it on every
// response. The route counts are one per listed search for every
// request kind, sharded ones included; for single-operator requests,
// route names the one route that answered ("memory", "disk", "remote",
// "singleflight", "cold").
type telemetryJSON struct {
	AdmissionWaitUs int64  `json:"admission_wait_us"`
	CacheProbeUs    int64  `json:"cache_probe_us"`
	ColdSearchUs    int64  `json:"cold_search_us"`
	ReconcileUs     int64  `json:"reconcile_us"`
	WallUs          int64  `json:"wall_us"`
	AdmissionWeight int    `json:"admission_weight"`
	Route           string `json:"route,omitempty"` // single-op only
	search.Counts
}

// build completes a parsed model request with the model graph, and the
// server's -chips default when it names no chip count. (The parser
// already built an op request's expression.)
func (q *compileRequest) build(defaultChips int) (err error) {
	if q.op == nil {
		if q.Chips <= 0 {
			q.Chips = defaultChips
		}
		q.model, err = models.Build(q.Model, max(q.Batch, 1))
	}
	return err
}

// what names the request in error replies.
func (q *compileRequest) what() string {
	switch {
	case q.op != nil:
		return "search " + q.op.Name
	case q.Chips > 1:
		return fmt.Sprintf("compile %s across %d chips", q.Model, q.Chips)
	default:
		return "compile " + q.Model
	}
}

// reply is a /compile 200 body of either shape; the flow completes it
// with the telemetry block.
type reply interface{ setTelemetry(*telemetryJSON) }

func (r *compileResponse) setTelemetry(tel *telemetryJSON) { r.Telemetry = tel }

func (r *searchResponse) setTelemetry(tel *telemetryJSON) {
	tel.Route = opRoute(tel)
	r.Telemetry = tel
}

// run makes the request's t10 call: a single-operator search, a plain
// compile, or — chips > 1 — a sharded one, where the model is
// partitioned across the device generation's chips (pipeline cuts +
// tensor-parallel row splits) and each stage compiled by the ordinary
// single-chip pipeline through the same plan cache and worker budget.
// This is the one place the request kind matters: the compiler prices
// every kind's admission itself.
func (s *server) run(ctx context.Context, c *t10.Compiler, q *compileRequest) (*t10.Telemetry, reply, error) {
	var opts []t10.CompileOption
	if s.detach {
		opts = append(opts, t10.WithDetachOnCancel())
	}
	start := time.Now()
	switch {
	case q.op != nil:
		sr, err := c.SearchWithResult(ctx, q.op, opts...)
		if err != nil {
			return nil, nil, err
		}
		return &sr.Telemetry, searchBody(sr.Result, msSince(start)), nil
	case q.Chips > 1:
		if q.Microbatches > 1 {
			opts = append(opts, t10.WithPipelineMicrobatches(q.Microbatches))
		}
		sr, err := c.CompileShardedWithResult(ctx, q.model, q.Chips, opts...)
		if err != nil {
			return nil, nil, err
		}
		part := sr.Executable.Partition
		s.stats.ShardedCompiles.Add(1)
		s.stats.ShardedStages.Add(int64(len(part.Stages)))
		s.stats.ShardedChips.Add(int64(part.Chips))
		return &sr.Telemetry, shardedBody(q, sr.Executable, msSince(start)), nil
	default:
		cr, err := c.CompileWithResult(ctx, q.model, opts...)
		if err != nil {
			return nil, nil, err
		}
		return &cr.Telemetry, compileBody(q, cr.Executable, msSince(start)), nil
	}
}

// msSince is the elapsed time in the unit of compile_ms and search_ms.
func msSince(t time.Time) float64 { return float64(time.Since(t).Microseconds()) / 1e3 }

// handleCompile is the one /compile flow, whatever the request kind:
// parse → build → run (priced and admitted inside t10) → telemetry →
// encode.
func (s *server) handleCompile(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.methodNotAllowed(w, http.MethodPost)
		return
	}
	q, err := parseCompileRequest(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.httpError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", maxBodyBytes)
			return
		}
		s.httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if err := q.build(s.chips); err != nil {
		s.httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// the per-request deadline rides on the client's context, so a
	// disconnected client also cancels its compile
	ctx := r.Context()
	if s.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.timeout)
		defer cancel()
	}
	s.stats.InFlight.Add(1)
	defer s.stats.InFlight.Add(-1)
	// cold searches the request performs may push the sample ring past
	// the refit threshold
	defer s.maybeRecalibrate()

	tel, resp, err := s.run(ctx, s.compiler(), q)
	if err != nil {
		s.compileError(w, q.what(), err)
		return
	}
	resp.setTelemetry(s.recordTelemetry(tel))
	s.stats.Completed.Add(1)
	s.writeJSON(w, resp)
}

// compileBody renders a plain model compile.
func compileBody(q *compileRequest, exe *t10.Executable, ms float64) *compileResponse {
	// exe.Model, not the request model: under -fusion the executable's
	// ops are the fused graph the plans and schedule actually index
	resp := &compileResponse{
		Model:      q.model.Name,
		Batch:      q.model.BatchSize,
		Ops:        len(exe.Model.Ops),
		CompileMs:  ms,
		IdleMemPct: 100 * float64(exe.Schedule.IdleMemPerCore) / float64(exe.Spec.CoreMemBytes),
		Plans:      slices.Grow([]opPlanJSON(nil), len(exe.Model.Ops)), // nil when empty: "plans": null
	}
	for i := range exe.Model.Ops {
		op := &exe.Model.Ops[i]
		asg := &exe.Schedule.Assignments[i]
		resp.Plans = append(resp.Plans, opPlanJSON{
			Name:     op.Name,
			Repeat:   max(op.Repeat, 1),
			Fop:      asg.Active.Plan.Fop,
			Steps:    asg.Active.Plan.TotalSteps,
			ActiveKB: float64(asg.Active.Est.MemPerCore) / 1024,
			IdleKB:   float64(asg.IdleMemPerCore) / 1024,
			EstUs:    asg.ExecNs / 1e3,
			SetupUs:  asg.SetupNs / 1e3,
		})
	}
	if q.Simulate {
		resp.LatencyMs = exe.Simulate().LatencyMs()
	}
	return resp
}

// shardedBody renders a sharded compile: the shards list describes the
// winning partition (the telemetry block aggregates every stage compile
// the outer search priced).
func shardedBody(q *compileRequest, se *t10.ShardedExecutable, ms float64) *compileResponse {
	part := se.Partition
	resp := &compileResponse{
		Model:        q.model.Name,
		Batch:        q.model.BatchSize,
		Ops:          len(q.model.Ops),
		CompileMs:    ms,
		Chips:        part.Chips,
		Microbatches: part.Microbatches,
	}
	var rep *t10.ShardedReport
	if q.Simulate {
		rep = se.Simulate()
		resp.LatencyMs = rep.LatencyMs()
		resp.TransferMs = rep.TransferNs / 1e6
		resp.BubbleMs = rep.BubbleNs / 1e6
	}
	for i := range part.Stages {
		st := &part.Stages[i]
		sj := shardJSON{
			Stage:      i,
			StartOp:    st.Start,
			EndOp:      st.End,
			Ops:        st.End - st.Start,
			Split:      st.Split,
			IdleMemPct: 100 * float64(se.Stages[i].Schedule.IdleMemPerCore) / float64(se.Spec.CoreMemBytes),
			GatherUs:   st.GatherNs / 1e3,
		}
		if rep != nil {
			sj.LatencyMs = rep.Stages[i].TotalNs / 1e6
		}
		resp.Shards = append(resp.Shards, sj)
		resp.IdleMemPct = max(resp.IdleMemPct, sj.IdleMemPct)
	}
	return resp
}

// searchBody renders a single-operator search.
func searchBody(res *search.Result, ms float64) *searchResponse {
	resp := &searchResponse{Op: res.Op, Filtered: res.Spaces.Filtered, SearchMs: ms,
		Pareto: slices.Grow([]paretoPlanJSON(nil), len(res.Pareto))}
	for i := range res.Pareto {
		c := &res.Pareto[i]
		resp.Pareto = append(resp.Pareto, paretoPlanJSON{
			Fop:     c.Plan.Fop,
			Steps:   c.Plan.TotalSteps,
			MemKB:   float64(c.Est.MemPerCore) / 1024,
			EstUs:   c.Est.TotalNs / 1e3,
			ShiftKB: float64(c.Est.ShiftBytesPerCore) / 1024,
		})
	}
	return resp
}

// recordTelemetry folds one successful request's telemetry into the
// /stats aggregates (latency rings, admission weights, route counters)
// and renders the response block.
func (s *server) recordTelemetry(tel *t10.Telemetry) *telemetryJSON {
	switch {
	case tel.AdmissionWeight == 0:
		s.stats.ProbeRequests.Add(1)
	case tel.AdmissionWeight > 1:
		s.stats.HeavyRequests.Add(1)
	}
	s.stats.WeightAdmitted.Add(int64(tel.AdmissionWeight))
	s.lat.AdmissionWait.add(tel.AdmissionWait)
	s.lat.CacheProbe.add(tel.CacheProbe)
	s.lat.ColdSearch.add(tel.ColdSearch)
	s.lat.Reconcile.add(tel.Reconcile)
	s.lat.Wall.add(tel.Wall)
	s.stats.RouteMemory.Add(int64(tel.RouteMemory))
	s.stats.RouteDisk.Add(int64(tel.RouteDisk))
	s.stats.RouteRemote.Add(int64(tel.RouteRemote))
	s.stats.RouteFlightWait.Add(int64(tel.RouteFlightWait))
	s.stats.RouteCold.Add(int64(tel.RouteCold))
	s.stats.FusedGroups.Add(int64(tel.FusedGroups))
	s.stats.FusedOps.Add(int64(tel.FusedOps))
	return &telemetryJSON{
		AdmissionWaitUs: tel.AdmissionWait.Microseconds(),
		CacheProbeUs:    tel.CacheProbe.Microseconds(),
		ColdSearchUs:    tel.ColdSearch.Microseconds(),
		ReconcileUs:     tel.Reconcile.Microseconds(),
		WallUs:          tel.Wall.Microseconds(),
		AdmissionWeight: tel.AdmissionWeight,
		Counts:          tel.Counts,
	}
}

// opRoute names the single route that answered a one-operator request.
// A retry-as-owner flight can touch more than one route; the most
// expensive one taken is the honest label.
func opRoute(tel *telemetryJSON) string {
	switch {
	case tel.RouteCold > 0:
		return "cold"
	case tel.RouteRemote > 0:
		return "remote"
	case tel.RouteDisk > 0:
		return "disk"
	case tel.RouteFlightWait > 0:
		return "singleflight"
	default:
		return "memory"
	}
}

type paretoPlanJSON struct {
	Fop     []int   `json:"fop"`
	Steps   int     `json:"steps"`
	MemKB   float64 `json:"mem_kb"`
	EstUs   float64 `json:"est_us"`
	ShiftKB float64 `json:"shift_kb"`
}

type searchResponse struct {
	Op        string           `json:"op"`
	Filtered  int              `json:"filtered"`
	Pareto    []paretoPlanJSON `json:"pareto"`
	SearchMs  float64          `json:"search_ms"`
	Telemetry *telemetryJSON   `json:"telemetry,omitempty"`
}

// retryAfter bounds and default for retryAfterSeconds: never tell a
// client to come back sooner than 1s (pointless hammering) or later
// than 30s (the queue drains far faster than that at any plausible
// load — a huge p95 means a burst just passed, not a 30s+ wait).
const (
	retryAfterFloorSec   = 1
	retryAfterCeilingSec = 30
)

// retryAfterSeconds derives the Retry-After hint from load actually
// observed: the p95 of recent admission waits — how long the requests
// that did get in recently queued for a slot — rounded up to whole
// seconds and clamped. With no samples yet (cold server shedding its
// first burst), the floor.
func (s *server) retryAfterSeconds() int {
	p := s.lat.AdmissionWait.percentiles()
	if p.Samples == 0 {
		return retryAfterFloorSec
	}
	sec := int((p.P95Us + 1e6 - 1) / 1e6)
	return min(max(sec, retryAfterFloorSec), retryAfterCeilingSec)
}

// compileError maps a failed compile to the load-shedding protocol:
// saturated admission queue → 429 Too Many Requests, cancelled or
// deadline-expired → 503 Service Unavailable (both with a Retry-After
// derived from the observed queue-wait p95 — the condition is
// transient, and the hint should track how congested the queue
// actually is), anything else → 422 (the request is well-formed but
// infeasible).
func (s *server) compileError(w http.ResponseWriter, what string, err error) {
	switch {
	case errors.Is(err, sema.ErrSaturated):
		s.stats.Rejected.Add(1)
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		s.httpError(w, http.StatusTooManyRequests, "%s: compile budget saturated", what)
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		s.stats.Cancelled.Add(1)
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		s.httpError(w, http.StatusServiceUnavailable, "%s: %v", what, err)
	default:
		s.httpError(w, http.StatusUnprocessableEntity, "%s: %v", what, err)
	}
}
