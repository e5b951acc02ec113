// t10serve is the heavy-traffic serving scenario end-to-end: an HTTP
// service that compiles models (or single operators) on demand, backed
// by the concurrent compilation pipeline and the content-addressed plan
// cache, so repeated requests for the same workload skip the Pareto
// search entirely.
//
// The server is load-shedding, not best-effort: every concurrent
// request draws its compile workers from one server-wide budget
// (internal/sema shared mode), so a burst of requests can never run
// requests × workers goroutines. Admission is cost-weighted, and the
// compiler prices each request itself from the operator searches it is
// about to run (cache probes + rule-filtered space sizes, no search —
// see t10.Options.SharedPool), so a fully cached request skips
// admission entirely (it can never be shed) while a cold multi-layer
// compile acquires several slots' worth of budget — cheap
// traffic keeps flowing while the pool is saturated with expensive
// compiles. Requests beyond the budget wait in a bounded admission
// queue; past that the server answers 429 with Retry-After. Each
// request carries a deadline (-compile-timeout, plus whatever the
// client's context imposes) that cancels the Pareto search
// mid-enumeration, answered with 503; with -detach-on-cancel the
// in-flight operator searches finish in the background and warm the
// plan cache, so the client's retry hits instead of recomputing.
// SIGINT/SIGTERM drain in-flight compiles before exiting.
//
// Every 200 response carries the request's structured telemetry
// (stage wall times, cache routes, admission weight — see
// t10.Telemetry), and /stats aggregates the same data server-wide:
// p50/p95/p99 per-stage latency percentiles over a ring of recent
// requests, cumulative per-route hit counters, and the detached-compile
// gauges. Detached compiles are capped (-detach-limit): beyond the cap
// a cancellation degrades to the plain kind instead of pinning the
// budget. Persisted plan records carry provenance (builder version +
// key, HMAC'd under -cache-salt when set), so a foreign or tampered
// record loads as a miss and is overwritten, never trusted.
//
// With -peers, replicas form a fleet that shares plan-cache warmth:
// a local miss asks the peers' /plans stores (timeouts, bounded
// retries, per-peer circuit breakers — see plancache.Remote) before
// falling back to the cold search, and every freshly sealed record is
// pushed to the peers best-effort. The /plans handlers serve sealed
// records straight from disk and never touch the compile budget (the
// same idea as the weight-0 cache-probe fast path), and every record a
// peer serves still passes this replica's provenance verification —
// a slow, dead or garbage-serving peer degrades to counted misses,
// never to failed compiles.
//
// Endpoints:
//
//	POST /compile    {"model":"BERT","batch":8,"simulate":true}
//	                 {"op":{"name":"mm","m":1024,"k":1024,"n":4096,"dtype":"fp16"}}
//	GET  /plans/{fingerprint}  sealed plan record, verbatim (fleet peers)
//	PUT  /plans/{fingerprint}  store a sealed record (verified first)
//	GET  /cachestats plan cache counters as JSON
//	GET  /stats      serving counters: in-flight, queued, rejected, cancelled,
//	                 per-stage latency percentiles, per-route hits, detach
//	                 gauges, remote-tier health (per-peer breaker states)
//	GET  /healthz    liveness probe
//
// Files: main.go holds the flags and the process lifecycle; server.go
// the server value, the calibration loop and the small endpoints;
// compile.go the one /compile flow (parse → request → estimate → admit
// → run → telemetry → encode) every request kind takes; stats.go the
// counters — each declared once, in the struct /stats encodes — and the
// latency rings; plans.go the fleet peer surface.
//
// Usage:
//
//	t10serve -addr :8080 -cachedir /var/cache/t10 -workers 8 -queue 64 -compile-timeout 2m \
//	         -peers http://replica2:8080,http://replica3:8080
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/costmodel"
	"repro/internal/device"
	"repro/internal/graph"
	"repro/internal/plancache"
	"repro/internal/sema"
	"repro/t10"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	cacheDir := flag.String("cachedir", "", "on-disk plan cache directory")
	workers := flag.Int("workers", 0, "server-wide compile worker budget shared by every concurrent request (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 64, "admission queue length: requests allowed to wait for a worker slot before the server sheds load with 429")
	timeout := flag.Duration("compile-timeout", 2*time.Minute, "per-request compile deadline; expired requests answer 503 (0 = no deadline)")
	detach := flag.Bool("detach-on-cancel", false, "finish (and cache) in-flight operator searches of cancelled requests in the background, so retries hit the plan cache")
	detachLimit := flag.Int("detach-limit", 0, "max concurrently detached (cancelled but still compiling) requests; beyond it cancellation degrades to the plain kind (0 = the worker budget)")
	cacheSalt := flag.String("cache-salt", "", "deployment secret HMAC'ing persisted plan records; records written under another salt (or tampered with) load as misses")
	peers := flag.String("peers", "", "comma-separated base URLs of fleet peers whose /plans stores answer cache misses before a cold search (empty = no remote tier)")
	fusion := flag.Bool("fusion", false, "run the operator-fusion pass on every model compile (graph.DefaultRules); fused and unfused plan caches never mix — the rule set is part of the cache fingerprint")
	calibrate := flag.Bool("calibrate", false, "close the cost-model measurement loop: record (kernel task, simulated time) samples from every cold search's kept plans, periodically refit the cost model over them and redeploy the compiler (see -calibrate-every)")
	calibEvery := flag.Int("calibrate-every", 256, "with -calibrate: new samples accumulated between refits; each refit bumps the fit version and retires the previous fit's plan records as counted cache rejects")
	chips := flag.Int("chips", 1, "default chip count for model compiles: > 1 partitions every model across that many chips of the device generation (pipeline cuts + tensor-parallel splits, CompileSharded); a request's own \"chips\" field overrides")
	flag.Parse()
	if *chips > maxChips {
		log.Fatalf("t10serve: -chips %d exceeds the %d a request may ask for", *chips, maxChips)
	}

	budget := *workers
	if budget <= 0 {
		budget = runtime.GOMAXPROCS(0)
	}
	dlim := *detachLimit
	if dlim <= 0 {
		dlim = budget
	}
	limiter := t10.NewDetachLimit(dlim)
	pool := sema.NewShared(budget, *queue)
	opts := t10.DefaultOptions()
	opts.Workers = budget
	opts.SharedPool = pool
	opts.DetachLimit = limiter
	var remote *plancache.Remote
	if urls := splitPeers(*peers); len(urls) > 0 {
		remote = plancache.NewRemote(plancache.RemoteOptions{Peers: urls})
	}
	var copts []t10.CompilerOption
	if *fusion {
		copts = append(copts, t10.WithFusion(graph.DefaultRules()))
	}
	var ring *costmodel.SampleRing
	if *calibrate {
		ring = costmodel.NewSampleRing(costmodel.DefaultRingSize)
	}
	// buildCompiler constructs one compiler generation, with a plan
	// cache of its own over the shared disk dir and fleet tier; the
	// calibration loop re-invokes it with an ascending fit version so
	// each refit over the (shared, ever-growing) ring is named
	// distinctly.
	buildCompiler := func(version int) (*t10.Compiler, error) {
		cc := copts
		if ring != nil {
			cc = append(cc[:len(cc):len(cc)], t10.WithCalibration(ring, version))
		}
		o := opts
		o.SharedCache = plancache.New(plancache.Options{Dir: *cacheDir, Salt: []byte(*cacheSalt)})
		o.SharedCache.SetRemote(remote)
		return t10.New(device.IPUMK2(), o, cc...)
	}
	c, err := buildCompiler(0)
	if err != nil {
		fmt.Fprintln(os.Stderr, "t10serve:", err)
		os.Exit(1)
	}
	log.Printf("t10serve: listening on %s (device %s, chips %d, budget %d workers, queue %d, compile timeout %v, detach-on-cancel %t (limit %d), fusion %t, calibrate %t (every %d), cache dir %q, peers %v)",
		*addr, c.Spec.Name, *chips, budget, *queue, *timeout, *detach, dlim, *fusion, *calibrate, *calibEvery, *cacheDir, remote.Peers())
	hsrv := newServer(c, pool, *timeout)
	hsrv.chips = *chips
	hsrv.detach = *detach
	hsrv.detachLimit = limiter
	hsrv.remote = remote
	if ring != nil {
		hsrv.enableCalibration(ring, *calibEvery, buildCompiler)
	}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           hsrv.mux(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      5 * time.Minute, // big-model compiles take a while
	}

	// graceful shutdown: stop accepting, drain in-flight compiles
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	select {
	case err := <-errCh:
		fmt.Fprintln(os.Stderr, "t10serve:", err)
		os.Exit(1)
	case <-ctx.Done():
		stop()
		log.Printf("t10serve: shutdown signal, draining in-flight compiles")
		drainCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(drainCtx); err != nil {
			log.Printf("t10serve: drain incomplete: %v", err)
		}
		remote.Close() // flush in-flight best-effort publishes (nil-safe)
	}
}

// splitPeers parses the -peers flag: comma-separated base URLs, blanks
// dropped.
func splitPeers(s string) []string {
	var out []string
	for _, u := range strings.Split(s, ",") {
		if u = strings.TrimSpace(u); u != "" {
			out = append(out, u)
		}
	}
	return out
}
