package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/costmodel"
	"repro/internal/device"
	"repro/internal/expr"
	"repro/internal/sema"
	"repro/t10"
)

// TestLatRingPartialWindowPercentiles pins the partially-filled-window
// arithmetic: percentiles must be computed over the filled prefix
// only, never over the zeroed tail of an unfilled ring — a bug there
// reads as phantom sub-microsecond latency until 512 requests have
// passed, and feeds a zero Retry-After hint.
func TestLatRingPartialWindowPercentiles(t *testing.T) {
	t.Run("one sample", func(t *testing.T) {
		var r latRing
		r.add(40 * time.Microsecond)
		p := r.percentiles()
		if p.Samples != 1 || p.P50Us != 40 || p.P95Us != 40 || p.P99Us != 40 {
			t.Fatalf("one-sample window: %+v, want every percentile = the sample", p)
		}
	})
	t.Run("three samples", func(t *testing.T) {
		var r latRing
		// out of order on purpose: the snapshot must sort
		for _, us := range []int{30, 10, 20} {
			r.add(time.Duration(us) * time.Microsecond)
		}
		p := r.percentiles()
		// lower index over [10 20 30]: int(p·2) = 1 for all three
		if p.Samples != 3 || p.P50Us != 20 || p.P95Us != 20 || p.P99Us != 20 {
			t.Fatalf("three-sample window: %+v, want 20µs across the board (never 0 from the unfilled tail)", p)
		}
	})
	t.Run("one short of full", func(t *testing.T) {
		var r latRing
		for i := 1; i <= latRingSize-1; i++ {
			r.add(time.Duration(i) * time.Microsecond)
		}
		p := r.percentiles()
		// 511 values 1..511: lower indices int(p·510)
		if p.Samples != latRingSize-1 {
			t.Fatalf("samples = %d, want %d", p.Samples, latRingSize-1)
		}
		if p.P50Us != 256 || p.P95Us != 485 || p.P99Us != 505 {
			t.Fatalf("511-sample window: %+v, want p50=256 p95=485 p99=505 (the empty slot must not count as a zero)", p)
		}
	})
}

// TestRetryAfterColdStartHeader pins the idle-floor edge over the real
// response path: a shed request on a cold server (empty admission-wait
// ring) must carry the documented floor in Retry-After, never a zero
// or missing header.
func TestRetryAfterColdStartHeader(t *testing.T) {
	s := &server{}
	w := httptest.NewRecorder()
	s.compileError(w, "op", sema.ErrSaturated)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", w.Code)
	}
	if got := w.Header().Get("Retry-After"); got != "1" {
		t.Fatalf("cold-start Retry-After = %q, want the documented floor %q", got, "1")
	}
}

// TestCalibrationLoopRefitsAndRedeploys drives the tentpole end to end
// in-process: cold compiles feed the sample ring through the search
// tap, a refit rebuilds the compiler over the ring and atomically
// swaps it in, /stats reports the gauges, and the new fit's
// fingerprint sends the previously cached op back through a cold
// search (the rolling-upgrade behaviour, inside one process).
func TestCalibrationLoopRefitsAndRedeploys(t *testing.T) {
	ring := costmodel.NewSampleRing(costmodel.DefaultRingSize)
	pool := sema.NewShared(2, 64)
	opts := t10.DefaultOptions()
	opts.Workers = 2
	opts.SharedPool = pool
	opts.CacheDir = t.TempDir() // shared across generations, like production
	build := func(version int) (*t10.Compiler, error) {
		return t10.New(device.IPUMK2(), opts, t10.WithCalibration(ring, version))
	}
	c, err := build(0)
	if err != nil {
		t.Fatal(err)
	}
	s := newServer(c, pool, 0)
	// threshold high enough that the per-request hook never fires: this
	// test drives the refits synchronously to stay deterministic
	s.enableCalibration(ring, 1<<30, build)
	ts := httptest.NewServer(s.mux())
	defer ts.Close()

	if _, ok := s.compiler().Calibration(); ok {
		t.Fatal("boot compiler (empty ring) must price with the shipped fit")
	}

	// a cold search collects one sample per Pareto survivor
	const op = `{"op":{"name":"cal","m":256,"k":256,"n":512}}`
	var first searchResponse
	if resp := postJSON(t, ts.URL+"/compile", op, &first); resp.StatusCode != http.StatusOK {
		t.Fatalf("cold compile: %s", resp.Status)
	}
	if first.Telemetry.Route != "cold" {
		t.Fatalf("first route = %q, want cold", first.Telemetry.Route)
	}
	if ring.Total() == 0 {
		t.Fatal("cold search recorded no calibration samples")
	}
	// before any refit the same op answers from cache
	var warm searchResponse
	postJSON(t, ts.URL+"/compile", op, &warm)
	if warm.Telemetry.Route == "cold" {
		t.Fatal("repeat compile went cold before any refit")
	}

	// the synchronous half of maybeRecalibrate, so the test is
	// deterministic (the async path is the same function behind a CAS)
	if err := s.recalibrate(); err != nil {
		t.Fatal(err)
	}
	cal, ok := s.compiler().Calibration()
	if !ok {
		t.Fatal("redeployed compiler is not calibrated")
	}
	if cal.Version != 1 {
		t.Fatalf("first refit version = %d, want 1", cal.Version)
	}
	if err := s.recalibrate(); err != nil {
		t.Fatal(err)
	}
	if cal, _ = s.compiler().Calibration(); cal.Version != 2 {
		t.Fatalf("second refit version = %d, want 2 (versions must ascend across generations)", cal.Version)
	}

	// /stats carries the calibration gauges
	st := fetchStats(t, ts.URL)
	calSection, ok := st["calibration"].(map[string]any)
	if !ok {
		t.Fatal("/stats carries no calibration section with the loop armed")
	}
	if uint64(st.n("calibration", "samples")) != ring.Total() || st.n("calibration", "fit_version") != 2 || st.n("calibration", "refits") != 2 {
		t.Fatalf("calibration gauges = %+v, want samples=%d fit_version=2 refits=2", calSection, ring.Total())
	}
	if over, _ := calSection["max_over_est_ns"].(float64); over < 0 {
		t.Fatalf("max_over_est_ns = %g, want >= 0", over)
	}

	// the refit fingerprint retires the old fit's records: the op that
	// was warm under the shipped fit goes cold exactly once more, then
	// caches under the new fit
	var recold searchResponse
	if resp := postJSON(t, ts.URL+"/compile", op, &recold); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-refit compile: %s", resp.Status)
	}
	if recold.Telemetry.Route != "cold" {
		t.Fatalf("post-refit route = %q, want cold (old fit's records must not answer the new fit)", recold.Telemetry.Route)
	}
	var rewarm searchResponse
	postJSON(t, ts.URL+"/compile", op, &rewarm)
	if rewarm.Telemetry.Route == "cold" {
		t.Fatal("second post-refit compile went cold; new fit's records are not caching")
	}
}

// TestSimulatedRepeatsTriggerNoRefit replays 100 identical warm
// simulate:true model requests on a calibrating server armed as
// t10serve -calibrate arms it. Only cold searches feed the sample ring,
// so after the first request (which searches BERT-8 cold) nothing is
// recorded: no refit fires, no cached plan is retired, and no op goes
// cold again.
func TestSimulatedRepeatsTriggerNoRefit(t *testing.T) {
	ring := costmodel.NewSampleRing(costmodel.DefaultRingSize)
	pool := sema.NewShared(2, 64)
	opts := t10.DefaultOptions()
	opts.Workers = 2
	opts.SharedPool = pool
	opts.CacheDir = t.TempDir()
	build := func(version int) (*t10.Compiler, error) {
		return t10.New(device.IPUMK2(), opts, t10.WithCalibration(ring, version))
	}
	c, err := build(0)
	if err != nil {
		t.Fatal(err)
	}
	s := newServer(c, pool, 0)
	s.enableCalibration(ring, 256, build)
	h := s.mux()

	const req = `{"model":"BERT","batch":8,"simulate":true}`
	var firstCold int64
	for i := 0; i < 100; i++ {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/compile", strings.NewReader(req)))
		if w.Code != http.StatusOK {
			t.Fatalf("request %d: %d %s", i, w.Code, w.Body)
		}
		for s.refitting.Load() { // let a refit the request kicked land
			time.Sleep(time.Millisecond)
		}
		if i == 0 {
			firstCold = s.stats.RouteCold.Load()
		}
	}
	refits, cold := s.refit.Refits.Load(), s.stats.RouteCold.Load()-firstCold
	t.Logf("100 simulated BERT-8 requests: %d samples, %d refits, %d cold searches after the first request's %d",
		ring.Total(), refits, cold, firstCold)
	if refits != 0 || cold != 0 {
		t.Fatalf("warm simulated repeats caused %d refits and %d cold searches, want 0 and 0", refits, cold)
	}
}

// TestMaybeRecalibrateThreshold pins the trigger arithmetic: no refit
// before the sample threshold, one refit (not several) once past it,
// and the threshold re-arms relative to the ring's lifetime total.
func TestMaybeRecalibrateThreshold(t *testing.T) {
	ring := costmodel.NewSampleRing(64)
	pool := sema.NewShared(1, 8)
	opts := t10.DefaultOptions()
	opts.Workers = 1
	opts.SharedPool = pool
	build := func(version int) (*t10.Compiler, error) {
		return t10.New(device.IPUMK2(), opts, t10.WithCalibration(ring, version))
	}
	c, err := build(0)
	if err != nil {
		t.Fatal(err)
	}
	s := newServer(c, pool, 0)
	s.enableCalibration(ring, 8, build)

	task := costmodel.ProfileSamples(device.IPUMK2(), expr.KindMatMul, 1, 11)[0]
	for i := 0; i < 7; i++ {
		ring.Record(task.Task, task.Ns)
	}
	s.maybeRecalibrate()
	if s.refitting.Load() || s.refit.Refits.Load() != 0 {
		t.Fatal("refit triggered below the sample threshold")
	}
	ring.Record(task.Task, task.Ns)
	if err := s.recalibrate(); err != nil { // deterministic stand-in for the async kick
		t.Fatal(err)
	}
	if got := s.nextRefitAt.Load(); got != ring.Total()+8 {
		t.Fatalf("next refit threshold = %d, want total+every = %d", got, ring.Total()+8)
	}
	s.maybeRecalibrate()
	if s.refitting.Load() {
		t.Fatal("refit re-triggered immediately after re-arming")
	}
}
