package main

import (
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/costmodel"
	"repro/internal/plancache"
	"repro/internal/sema"
	"repro/t10"
)

// server wires one compiler into the HTTP handlers. The compiler is
// safe for concurrent compiles: the shared worker budget, the plan
// cache and the searcher's in-flight deduplication do the heavy
// lifting. It is held behind an atomic pointer because the calibration
// loop (-calibrate) redeploys a freshly refit compiler at runtime;
// each request pins one compiler via compiler() and runs on it end to
// end, so a mid-request swap can never mix two fits in one response.
type server struct {
	cur         atomic.Pointer[t10.Compiler]
	pool        *sema.Sem         // the shared budget, for /stats and admission gauges
	timeout     time.Duration     // per-request compile deadline; 0 = none
	chips       int               // default chip count for model compiles (-chips; <= 1 = single-chip)
	detach      bool              // cancelled requests warm the cache instead of wasting work
	detachLimit *t10.DetachLimit  // cap + gauges on concurrently detached requests (nil = uncapped)
	remote      *plancache.Remote // fleet peer tier (nil = standalone); nil-safe methods

	// calibration loop state (-calibrate; see enableCalibration). The
	// ring outlives every compiler generation — each rebuild refits
	// over the same accumulated samples.
	calibRing   *costmodel.SampleRing
	calibEvery  uint64                                   // new samples between refits
	rebuild     func(version int) (*t10.Compiler, error) // construct the next generation
	refitting   atomic.Bool                              // one refit in flight at a time
	nextRefitAt atomic.Uint64                            // ring lifetime total that triggers the next refit

	// what /stats reports (stats.go)
	stats counters
	plans planCounters
	refit refitCounters
	lat   latencyRings
}

func newServer(c *t10.Compiler, pool *sema.Sem, timeout time.Duration) *server {
	s := &server{pool: pool, timeout: timeout}
	s.cur.Store(c)
	return s
}

// compiler returns the compiler generation currently serving. Handlers
// call it once per request and use that pin throughout, so every
// response is priced by exactly one fit even if a refit swaps the
// pointer mid-request.
func (s *server) compiler() *t10.Compiler { return s.cur.Load() }

// enableCalibration arms the online refinement loop: once ring has
// accumulated `every` new samples since the last deploy, the server
// rebuilds the compiler (refitting the cost model over the ring, with
// an ascending fit version) and atomically swaps it in. Requests keep
// flowing on the previous generation while the rebuild runs; the
// generations safely share the disk cache, worker pool and fleet tier,
// and the new fit's fingerprint tag retires the old fit's plan records
// as counted cache rejects.
func (s *server) enableCalibration(ring *costmodel.SampleRing, every int, rebuild func(version int) (*t10.Compiler, error)) {
	if ring == nil || every <= 0 || rebuild == nil {
		return
	}
	s.calibRing = ring
	s.calibEvery = uint64(every)
	s.rebuild = rebuild
	s.nextRefitAt.Store(uint64(every))
}

// maybeRecalibrate kicks an asynchronous refit when the sample ring
// has grown past the next threshold. At most one refit runs at a time
// (CAS-guarded); requests are never blocked by it.
func (s *server) maybeRecalibrate() {
	if s.calibRing == nil || s.calibRing.Total() < s.nextRefitAt.Load() {
		return
	}
	if !s.refitting.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer s.refitting.Store(false)
		if err := s.recalibrate(); err != nil {
			log.Printf("t10serve: recalibrate: %v", err)
		}
	}()
}

// recalibrate synchronously rebuilds the compiler over the current
// ring contents and redeploys it. The fit version ascends with each
// deploy (the shipped boot fit is generation 0), so /stats and the
// record fingerprints name every successive fit distinctly.
func (s *server) recalibrate() error {
	version := int(s.refit.Refits.Load()) + 1
	nc, err := s.rebuild(version)
	if err != nil {
		s.refit.RefitFails.Add(1)
		return err
	}
	s.cur.Store(nc)
	s.refit.Refits.Add(1)
	s.nextRefitAt.Store(s.calibRing.Total() + s.calibEvery)
	return nil
}

func (s *server) mux() *http.ServeMux {
	m := http.NewServeMux()
	m.HandleFunc("/compile", s.handleCompile)
	m.HandleFunc("/plans/", s.handlePlans)
	m.HandleFunc("/cachestats", s.handleCacheStats)
	m.HandleFunc("/stats", s.handleStats)
	m.HandleFunc("/healthz", s.handleHealthz)
	return m
}

func (s *server) handleCacheStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.methodNotAllowed(w, http.MethodGet)
		return
	}
	s.writeJSON(w, s.compiler().CacheStats())
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	// HEAD too: load balancers commonly probe liveness with HEAD
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		s.methodNotAllowed(w, "GET, HEAD")
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Write([]byte("ok\n"))
}

func (s *server) methodNotAllowed(w http.ResponseWriter, allow string) {
	w.Header().Set("Allow", allow)
	s.httpError(w, http.StatusMethodNotAllowed, "method not allowed; use %s", allow)
}

// replyEncoders recycles reply buffers of up to 64 KB between requests.
var replyEncoders = sync.Pool{New: func() any { return new(replyEncoder) }}

// writeJSON sends v as compact JSON in one Write with an explicit
// Content-Length, never chunked. It encodes before the header goes out:
// a reply that cannot be encoded answers 500, not a 200 with no body.
func (s *server) writeJSON(w http.ResponseWriter, v any) {
	e := replyEncoders.Get().(*replyEncoder)
	e.b, e.err = e.b[:0], nil
	if e.encode(v); e.err != nil {
		s.httpError(w, http.StatusInternalServerError, "encode response: %v", e.err)
	} else {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Length", strconv.Itoa(len(e.b)))
		_, e.err = w.Write(e.b)
	}
	if e.err != nil {
		s.stats.EncodeErrors.Add(1)
		log.Printf("t10serve: encode response: %v", e.err)
	}
	if cap(e.b) <= 64<<10 {
		replyEncoders.Put(e)
	}
}

func (s *server) httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)}); err != nil {
		s.stats.EncodeErrors.Add(1)
	}
}
