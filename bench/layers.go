package main

import (
	"context"
	"fmt"
	"time"
)

// perLayerReport runs the traced pass: an untraced segment, the same
// length traced, then the layer probes on what the workload produced.
func perLayerReport(ctx context.Context, e *env, name string, cfg config, w workload, pos *int, segDur time.Duration) (*report, error) {
	sched := w.schedule()
	plain, err := measure(ctx, w, sched, pos, segDur, nil)
	if err != nil {
		return nil, err
	}
	before, err := w.counters()
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	bytes0, mallocs0 := memStats()
	traced, err := measure(ctx, w, sched, pos, segDur, tr)
	if err != nil {
		return nil, err
	}
	bytes1, mallocs1 := memStats()
	after, err := w.counters()
	if err != nil {
		return nil, err
	}
	planLatency, planMem, verr := w.verify(ctx)

	all := sortedCopy(traced.all())
	if len(all) == 0 || len(plain.all()) == 0 {
		return nil, fmt.Errorf("no operation succeeded; first failure: %v, %v", plain.firstErr, traced.firstErr)
	}
	vals, err := runProbes(ctx, e, tr, cfg.reps, name, w)
	if err != nil {
		return nil, fmt.Errorf("layer probes: %w", err)
	}

	vals["t10.plan_latency"], vals["t10.plan_mem_pct"] = planLatency, planMem
	d := after.sub(before)
	ops := float64(traced.attempted)
	vals["plancache.hits"] = float64(d.cache.Hits)
	vals["plancache.misses"] = float64(d.cache.Misses)
	vals["plancache.evictions"] = float64(d.cache.Evictions)
	vals["plancache.hit_ratio"] = ratio(float64(d.cache.Hits), float64(d.cache.Hits+d.cache.Misses))
	vals["plancache.disk_hits"] = float64(d.cache.DiskHits)
	vals["plancache.disk_rejects"] = float64(d.cache.DiskRejects)
	vals["plancache.disk_errors"] = float64(d.cache.DiskErrors)
	vals["plancache.disk_writes"] = float64(d.cache.DiskWrites)

	shares := tr.stageShares()
	vals["t10.stage_cold_search_share"] = shares["cold_search"]
	vals["t10.stage_cache_probe_share"] = shares["cache_probe"]
	vals["t10.stage_reconcile_share"] = shares["reconcile"]
	vals["t10.stage_gap_ratio"] = shares["gap"]
	vals["t10.alloc_bytes_per_op"] = float64(bytes1-bytes0) / ops
	vals["t10.allocs_per_op"] = float64(mallocs1-mallocs0) / ops
	vals["process.peak_rss_mb"] = w.peakRSSMB()
	vals["trace.overhead_ratio"] = quantile(all, 0.5) / median(plain.all())

	// The daemon and its admission queue are a layer like the others:
	// serve_mix reads them off its own traced segment, every other
	// workload off a short traced segment of serve_mix.
	failed := plain.failed + traced.failed
	attempted := plain.attempted + traced.attempted
	if sw, ok := w.(*serveWorkload); ok {
		serveLayer(vals, sw, traced, d.serve)
	} else {
		seg, err := serveProbe(ctx, e, cfg, tr, vals)
		if err != nil {
			return nil, fmt.Errorf("t10serve probe: %w", err)
		}
		reportErrs(name, seg.firstErr)
		failed += seg.failed
		attempted += seg.attempted
	}

	if cfg.traceFile != "" {
		if err := tr.writeFile(cfg.traceFile); err != nil {
			return nil, err
		}
	}
	ms, err := emit(perLayer, vals)
	if err != nil {
		return nil, err
	}
	reportErrs(name, plain.firstErr, traced.firstErr, verr)
	return newReport(name, cfg, perLayer, result{
		Correct:   failed == 0 && verr == nil,
		Attempted: attempted, Failed: failed, Metrics: ms,
	}, len(all)), nil
}

// serveProbeShare is the share of --seconds the in-process workloads
// spend on their traced segment of serve_mix.
const serveProbeShare = 8

// serveProbe runs a short traced segment of serve_mix and fills the
// t10serve and sema rows from it.
func serveProbe(ctx context.Context, e *env, cfg config, tr *tracer, vals map[string]float64) (*segment, error) {
	sw := newServeWorkload(e)
	defer sw.teardown()
	dur := time.Duration(cfg.seconds / serveProbeShare * float64(time.Second))
	blocks := int(sw.maxRate()*dur.Seconds())/blockLen(sw.classes()) + 1
	if err := sw.setup(ctx, cfg.seed, blocks); err != nil {
		return nil, err
	}
	before, err := sw.counters()
	if err != nil {
		return nil, err
	}
	pos := 0
	seg, err := measure(ctx, sw, sw.schedule(), &pos, dur, tr)
	if err != nil {
		return nil, err
	}
	after, err := sw.counters()
	if err != nil {
		return nil, err
	}
	serveLayer(vals, sw, seg, after.sub(before).serve)
	return seg, nil
}

// serveLayer fills the t10serve and sema rows: what the daemon's
// clients, its responses and its /stats saw over a traced segment.
func serveLayer(vals map[string]float64, sw *serveWorkload, seg *segment, d serveStats) {
	for cls, c := range serveClasses {
		vals["t10serve.response_bytes."+c.name] = mean(sw.seg.bytes[cls])
		vals["t10serve.class_p50_ms."+c.name] = median(seg.byClass[cls])
	}
	vals["t10serve.startup_ms"] = sw.child.startupMs
	vals["t10serve.http_overhead_us"] = median(sw.seg.overheadUs)
	vals["t10serve.request_p99_ms"] = quantile(sortedCopy(seg.all()), 0.99)
	vals["t10serve.rejected"] = float64(d.Rejected)
	vals["t10serve.cancelled"] = float64(d.Cancelled)
	vals["t10serve.encode_errors"] = float64(d.EncodeErrors)
	vals["t10serve.probe_requests"] = float64(d.ProbeRequests)
	vals["t10serve.heavy_requests"] = float64(d.HeavyRequests)
	vals["t10serve.route_memory"] = float64(d.RouteMemory)
	vals["t10serve.route_disk"] = float64(d.RouteDisk)
	vals["t10serve.route_cold"] = float64(d.RouteCold)
	vals["t10serve.route_singleflight"] = float64(d.RouteFlightWait)
	vals["sema.admission_wait_us_mean"] = mean(sw.seg.admissionUs)
	vals["sema.admission_wait_us_p95"] = quantile(sortedCopy(sw.seg.admissionUs), 0.95)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
