package main

import (
	"fmt"
	"sort"
)

// metricDef declares one metric the benchmark emits. BENCHMARK.json
// lists the same names, units and directions (a unit test keeps the two
// equal). exact marks a count that repeats bit for bit between two
// evaluations of the same request: the run fails if it does not, and a
// later change may rest a claim on it.
type metricDef struct {
	name   string
	unit   string
	better string
	exact  bool
}

// metric is the wire form of one measured value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// tailQuantile is the highest percentile every workload's quiet third
// supports at the benchmark's run length: the slowest workloads keep
// 100 to 120 samples, of which ten must lie beyond it.
const tailQuantile = 0.90

// endToEnd are the metrics a caller of the compiler or the daemon sees.
// Failures are not a metric here: a ratio that is 0 on a healthy run
// cannot carry a relative bound, so they are reported as the result
// line's attempted/failed counts instead. The run time of the generated
// code (t10.plan_latency, t10.plan_mem_pct) is simulated, so it reads
// the same on every run; an end-to-end metric must be a measurement that
// does not, and the two are per-layer rows.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "request_p50_ms", unit: "ms", better: "lower"},
	{name: "request_p90_ms", unit: "ms", better: "lower"},
	{name: "throughput_rps", unit: "1/s", better: "higher"},
	{name: "cpu_ms_per_request", unit: "ms", better: "lower"},
}

// m5Keys suffix the per-model rows, index-aligned with m5Names.
var m5Keys = [...]string{"bert8", "vit8", "resnet8", "opt_prefill8", "opt_decode8"}

// serveClasses are the request classes of serve_mix, in class-index
// order; they suffix the per-class t10serve rows.
var serveClasses = []class{{"probe_op", 12}, {"probe_model", 3}, {"cold_op", 5}}

var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	lower := func(unit string, names ...string) []metricDef {
		out := make([]metricDef, len(names))
		for i, n := range names {
			out[i] = metricDef{name: n, unit: unit, better: "lower"}
		}
		return out
	}
	count := func(exact bool, better string, names ...string) []metricDef {
		out := make([]metricDef, len(names))
		for i, n := range names {
			out[i] = metricDef{name: n, unit: "count", better: better, exact: exact}
		}
		return out
	}
	var d []metricDef
	add := func(more ...metricDef) { d = append(d, more...) }

	// search: the cold enumeration, counted at Workers=1
	add(lower("ms", "search.cold_op_ms")...)
	add(count(true, "lower", "search.filtered", "search.priced", "search.pruned", "search.seeded",
		"search.cut_subtrees", "search.cut_leaves", "search.pareto", "search.truncated_ft_combos")...)
	add(metricDef{name: "search.pareto_per_priced", unit: "ratio", better: "higher", exact: true})
	add(lower("us", "search.cached_probe_us", "search.warm_op_us", "search.disk_op_us")...)

	add(lower("us", "core.sketch_us", "core.sketch_lb_us", "core.partial_fix_us",
		"core.newplan_us", "core.estimate_us")...)
	add(lower("ms", "costmodel.newset_ms")...)
	add(lower("ns", "costmodel.predict_ns")...)
	add(lower("us", "expr.signature_us")...)

	add(lower("us", "plancache.mem_get_us", "plancache.put_us",
		"plancache.disk_get_us", "plancache.disk_put_us")...)
	add(count(false, "higher", "plancache.hits")...)
	add(count(false, "lower", "plancache.misses", "plancache.evictions")...)
	add(metricDef{name: "plancache.hit_ratio", unit: "ratio", better: "higher"})
	add(count(false, "higher", "plancache.disk_hits")...)
	add(count(false, "lower", "plancache.disk_rejects", "plancache.disk_errors", "plancache.disk_writes")...)
	add(metricDef{name: "plancache.record_bytes", unit: "bytes", better: "lower", exact: true})

	add(lower("us", "interop.reconcile_us", "codegen.lower_us", "sim.run_us", "t10.simulate_us")...)

	add(count(true, "lower", "scaleout.enumerated", "scaleout.infeasible", "t10.sharded_stage_cold")...)
	add(lower("ms", "t10.sharded_warm_ms.c2", "t10.sharded_warm_ms.c4")...)

	// the generated code: simulated latency and peak memory of the
	// selected plans over the workload's distinct requests
	add(metricDef{name: "t10.plan_latency", unit: "sim_ms", better: "lower", exact: true})
	add(metricDef{name: "t10.plan_mem_pct", unit: "%", better: "lower", exact: true})

	add(lower("ms", "t10.new_ms")...)
	add(lower("us", "t10.estimate_cost_us")...)
	for _, k := range m5Keys {
		add(lower("ms", "t10.compile_cold_ms."+k)...)
	}
	add(lower("us", "t10.compile_warm_us")...)
	// where the traced operations' time went, as shares of their wall:
	// a stage a workload never enters is a share of 0, which a time
	// that must differ from run to run could not say
	add(lower("ratio", "t10.stage_cold_search_share", "t10.stage_cache_probe_share",
		"t10.stage_reconcile_share", "t10.stage_gap_ratio")...)
	add(lower("bytes", "t10.alloc_bytes_per_op")...)
	add(count(false, "lower", "t10.allocs_per_op")...)

	add(lower("ns", "sema.acquire_ns")...)
	add(lower("us", "sema.admission_wait_us_mean", "sema.admission_wait_us_p95")...)

	add(lower("ms", "t10serve.startup_ms")...)
	add(lower("us", "t10serve.http_overhead_us")...)
	for _, c := range serveClasses {
		// identical probe requests must get identical plans back, so
		// their normalised body size is exact; every cold_op differs
		add(metricDef{name: "t10serve.response_bytes." + c.name, unit: "bytes",
			better: "lower", exact: c.name != "cold_op"})
	}
	for _, c := range serveClasses {
		add(lower("ms", "t10serve.class_p50_ms."+c.name)...)
	}
	add(lower("ms", "t10serve.request_p99_ms")...)
	add(count(false, "lower", "t10serve.rejected", "t10serve.cancelled", "t10serve.encode_errors")...)
	add(count(false, "higher", "t10serve.probe_requests")...)
	add(count(false, "lower", "t10serve.heavy_requests")...)
	add(count(false, "higher", "t10serve.route_memory")...)
	add(count(false, "lower", "t10serve.route_disk", "t10serve.route_cold", "t10serve.route_singleflight")...)

	add(lower("us", "models.build_us", "graph.validate_us", "graph.fuse_us")...)
	add(count(true, "higher", "graph.fused_groups")...)

	add(lower("MB", "process.peak_rss_mb")...)
	add(lower("ratio", "trace.overhead_ratio")...)
	return d
}

// emit turns measured values into the wire map, insisting that exactly
// the declared metrics were measured: a misspelt or forgotten name is a
// harness bug, not a zero.
func emit(defs []metricDef, values map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	if len(values) != len(defs) {
		var extra []string
		for n := range values {
			if _, ok := out[n]; !ok {
				extra = append(extra, n)
			}
		}
		sort.Strings(extra)
		return nil, fmt.Errorf("undeclared metrics measured: %v", extra)
	}
	return out, nil
}
