package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/costmodel"
	"repro/internal/device"
	"repro/internal/plancache"
	"repro/internal/sema"
	"repro/t10"
)

// TestCompileFlowIsOneForEveryKind posts an operator, a 1-chip model
// and a 2-chip model through /compile, cold and then warm, and holds
// all three to the same reply: 200, JSON, a well-formed telemetry block
// that says cold work cost search time and warm work was a memory
// probe — at weight 0, or 1 for the 2-chip model, which assembles its
// stages one after another — answering one route per listed search
// both times, then the counters they share.
func TestCompileFlowIsOneForEveryKind(t *testing.T) {
	s, ts, _ := soakServer(t, 2, 4, 0)
	kinds := []struct {
		name, body string
		warm       int // the warm admission weight
	}{
		{"op", `{"op":{"name":"flow","m":256,"k":256,"n":512}}`, 0},
		{"1-chip model", `{"model":"ViT","batch":1,"simulate":true}`, 0},
		{"2-chip model", `{"model":"BERT","batch":1,"chips":2,"microbatches":2,"simulate":true}`, 1},
	}
	for _, k := range kinds {
		listed := 0 // the cold request's searches: every one is cold
		for _, temp := range []string{"cold", "warm"} {
			var out struct {
				Telemetry *telemetryJSON `json:"telemetry"`
			}
			resp := postJSON(t, ts.URL+"/compile", k.body, &out)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s %s: %s", temp, k.name, resp.Status)
			}
			if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
				t.Errorf("%s %s: Content-Type %q", temp, k.name, ct)
			}
			checkTelemetry(t, temp+" "+k.name, out.Telemetry)
			tel := out.Telemetry
			if temp == "cold" && (tel.RouteCold == 0 || tel.ColdSearchUs == 0 || tel.AdmissionWeight == 0 || tel.Priced == 0) {
				t.Errorf("cold %s: telemetry %+v, want admitted cold searches with their wall and space counters", k.name, tel)
			}
			if temp == "warm" && (tel.RouteCold != 0 || tel.RouteMemory == 0 || tel.AdmissionWeight != k.warm) {
				t.Errorf("warm %s: telemetry %+v, want a weight-%d memory probe", k.name, tel, k.warm)
			}
			if temp == "cold" {
				listed = tel.RouteCold
			}
			if routes := tel.RouteMemory + tel.RouteDisk + tel.RouteRemote + tel.RouteFlightWait + tel.RouteCold; routes != listed {
				t.Errorf("%s %s: %d routes for %d listed searches", temp, k.name, routes, listed)
			}
		}
	}
	st := fetchStats(t, ts.URL)
	if st.n("completed") != 6 || st.n("probe_requests") != 2 || st.n("latency", "wall", "samples") != 6 {
		t.Errorf("completed=%d probe_requests=%d wall samples=%d, want 6, 2, 6",
			st.n("completed"), st.n("probe_requests"), st.n("latency", "wall", "samples"))
	}
	if st.n("sharded_compiles") != 2 || st.n("sharded_compiles") != s.stats.ShardedCompiles.Load() {
		t.Errorf("sharded_compiles = %d, want 2", st.n("sharded_compiles"))
	}
}

// TestCompileFlowErrorMappings walks the flow's failure exits once,
// each on whichever request kind reaches it most cheaply — the exits
// are the same code for every kind.
func TestCompileFlowErrorMappings(t *testing.T) {
	// a generation with starved SRAM: BERT reconciles to infeasible
	starved := *device.IPUMK2()
	starved.Name, starved.Cores, starved.CoreMemBytes = "MK2-STARVED", 64, 16<<10
	pool := sema.NewShared(2, 0)
	opts := t10.DefaultOptions()
	opts.SharedPool = pool
	c, err := t10.New(&starved, opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newServer(c, pool, 0).mux())
	defer ts.Close()
	_, expiring, _ := soakServer(t, 1, 4, time.Nanosecond)

	cases := []struct {
		name, url, body string
		hold            int // budget slots occupied out-of-band first
		want            int
	}{
		{"malformed", ts.URL, `{"chips":2}`, 0, http.StatusBadRequest},
		{"unknown model", ts.URL, `{"model":"NoSuchModel","chips":2}`, 0, http.StatusBadRequest},
		{"oversized body", ts.URL, `{"model":"` + strings.Repeat("x", maxBodyBytes) + `"}`, 0, http.StatusRequestEntityTooLarge},
		{"infeasible", ts.URL, `{"model":"BERT","batch":1}`, 0, http.StatusUnprocessableEntity},
		{"saturated", ts.URL, `{"model":"BERT","batch":1,"chips":2}`, 2, http.StatusTooManyRequests},
		{"deadline", expiring.URL, `{"model":"BERT","batch":1,"chips":2}`, 0, http.StatusServiceUnavailable},
	}
	for _, tc := range cases {
		if tc.hold > 0 && !pool.TryAcquire(tc.hold) {
			t.Fatalf("%s: could not occupy the budget", tc.name)
		}
		resp := postJSON(t, tc.url+"/compile", tc.body, nil)
		pool.Release(tc.hold)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: Content-Type %q, want application/json", tc.name, ct)
		}
		transient := tc.want == http.StatusTooManyRequests || tc.want == http.StatusServiceUnavailable
		if got := resp.Header.Get("Retry-After") != ""; got != transient {
			t.Errorf("%s: Retry-After present = %t, want %t", tc.name, got, transient)
		}
	}
	st := fetchStats(t, ts.URL)
	if st.n("rejected") != 1 || st.n("completed") != 0 || st.n("in_flight") != 0 {
		t.Errorf("rejected=%d completed=%d in_flight=%d, want 1, 0, 0", st.n("rejected"), st.n("completed"), st.n("in_flight"))
	}
	if n := fetchStats(t, expiring.URL).n("cancelled"); n != 1 {
		t.Errorf("cancelled = %d, want 1", n)
	}
}

// TestStatsGoldenKeys pins the /stats wire contract: every key the
// endpoint has served stays present, whatever struct renders it.
func TestStatsGoldenKeys(t *testing.T) {
	// every optional section on: a (dead) peer tier and an armed
	// calibration loop
	s, ts := fleetReplica(t, replicaOptions{
		remote: plancache.NewRemote(plancache.RemoteOptions{Peers: []string{"http://127.0.0.1:1"}}),
	})
	s.enableCalibration(costmodel.NewSampleRing(8), 1<<30, func(int) (*t10.Compiler, error) { return nil, nil })
	st := fetchStats(t, ts.URL)

	percentile := []string{"p50_us", "p95_us", "p99_us", "samples"}
	want := map[string][]string{
		"": {"budget", "busy_workers", "in_flight", "queued", "completed", "rejected", "cancelled",
			"encode_errors", "probe_requests", "heavy_requests", "weight_admitted",
			"detached_active", "detached_rejected",
			"route_memory", "route_disk", "route_remote", "route_singleflight", "route_cold",
			"fused_groups", "fused_ops", "sharded_compiles", "sharded_stages", "sharded_chips",
			"latency", "remote", "calibration"},
		"latency":                {"admission_wait", "cache_probe", "cold_search", "reconcile", "wall"},
		"latency.admission_wait": percentile,
		"latency.cache_probe":    percentile,
		"latency.cold_search":    percentile,
		"latency.reconcile":      percentile,
		"latency.wall":           percentile,
		"remote": {"hits", "misses", "rejects", "publishes", "publish_failures", "publish_drops", "peers",
			"plan_gets", "plan_get_misses", "plan_puts", "plan_put_rejects"},
		"calibration": {"samples", "ring_len", "fit_version", "max_over_est_ns", "refits", "refit_fails"},
	}
	for section, keys := range want {
		var obj any = map[string]any(st)
		for _, k := range strings.Split(section, ".") {
			if k != "" {
				obj = obj.(map[string]any)[k]
			}
		}
		m, ok := obj.(map[string]any)
		if !ok {
			t.Errorf("/stats section %q is not an object: %v", section, obj)
			continue
		}
		for _, k := range keys {
			if _, ok := m[k]; !ok {
				t.Errorf("/stats section %q lost key %q", section, k)
			}
		}
	}
}
