package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/sema"
	"repro/t10"
)

// telemetryServer builds a server with its own compiler (fresh caches),
// optionally disk-backed and salted, optionally with detach-on-cancel.
func telemetryServer(t *testing.T, dir, salt string, detachCap int, timeout time.Duration) (*server, *httptest.Server) {
	t.Helper()
	pool := sema.NewShared(2, 16)
	opts := t10.DefaultOptions()
	opts.Workers = 2
	opts.SharedPool = pool
	opts.CacheDir = dir
	opts.CacheSalt = []byte(salt)
	limiter := t10.NewDetachLimit(detachCap)
	opts.DetachLimit = limiter
	c, err := t10.New(device.IPUMK2(), opts)
	if err != nil {
		t.Fatal(err)
	}
	s := newServer(c, pool, timeout)
	s.detachLimit = limiter
	ts := httptest.NewServer(s.mux())
	t.Cleanup(ts.Close)
	return s, ts
}

// checkTelemetry asserts the well-formedness invariants every 200's
// telemetry block must satisfy: the block is present, the stage sums
// stay within the wall (each stage is a disjoint phase of it, and
// flooring to µs preserves the inequality), the counts are sane, and a
// single-op route — when stamped — is one of the five route names.
func checkTelemetry(t *testing.T, what string, tel *telemetryJSON) {
	t.Helper()
	if tel == nil {
		t.Fatalf("%s: 200 without a telemetry block", what)
	}
	if tel.WallUs < 0 || tel.AdmissionWaitUs < 0 || tel.CacheProbeUs < 0 ||
		tel.ColdSearchUs < 0 || tel.ReconcileUs < 0 {
		t.Fatalf("%s: negative stage duration: %+v", what, tel)
	}
	if sum := tel.AdmissionWaitUs + tel.CacheProbeUs + tel.ColdSearchUs + tel.ReconcileUs; sum > tel.WallUs {
		t.Fatalf("%s: stage sum %dµs exceeds wall %dµs", what, sum, tel.WallUs)
	}
	if tel.RouteMemory < 0 || tel.RouteDisk < 0 || tel.RouteRemote < 0 || tel.RouteFlightWait < 0 || tel.RouteCold < 0 {
		t.Fatalf("%s: negative route count: %+v", what, tel)
	}
	if tel.RouteMemory+tel.RouteDisk+tel.RouteRemote+tel.RouteFlightWait+tel.RouteCold == 0 {
		t.Fatalf("%s: no route recorded for a served request", what)
	}
	if tel.Route != "" {
		switch tel.Route {
		case "memory", "disk", "remote", "singleflight", "cold":
		default:
			t.Fatalf("%s: route %q is not one of memory/disk/remote/singleflight/cold", what, tel.Route)
		}
	}
}

// TestResponsesCarryTelemetry drives both request shapes through both
// cache temperatures and checks the response telemetry tells the story:
// cold routes on the first compile, memory routes on the repeat, the
// single-op route string, and the Full-level space counters on cold
// work.
func TestResponsesCarryTelemetry(t *testing.T) {
	_, ts := telemetryServer(t, "", "", 0, 0)

	const op = `{"op":{"name":"tel","m":256,"k":256,"n":512}}`
	var cold searchResponse
	if resp := postJSON(t, ts.URL+"/compile", op, &cold); resp.StatusCode != http.StatusOK {
		t.Fatalf("cold op: %s", resp.Status)
	}
	checkTelemetry(t, "cold op", cold.Telemetry)
	if cold.Telemetry.Route != "cold" || cold.Telemetry.RouteCold != 1 {
		t.Fatalf("cold op telemetry: %+v, want route cold", cold.Telemetry)
	}
	if cold.Telemetry.Filtered == 0 || cold.Telemetry.Priced == 0 {
		t.Fatalf("cold op lifted no space counters: %+v", cold.Telemetry)
	}

	var warm searchResponse
	if resp := postJSON(t, ts.URL+"/compile", op, &warm); resp.StatusCode != http.StatusOK {
		t.Fatalf("warm op: %s", resp.Status)
	}
	checkTelemetry(t, "warm op", warm.Telemetry)
	if warm.Telemetry.Route != "memory" || warm.Telemetry.ColdSearchUs != 0 {
		t.Fatalf("warm op telemetry: %+v, want a pure memory hit", warm.Telemetry)
	}

	const model = `{"model":"BERT","batch":2}`
	var first compileResponse
	if resp := postJSON(t, ts.URL+"/compile", model, &first); resp.StatusCode != http.StatusOK {
		t.Fatalf("cold model: %s", resp.Status)
	}
	checkTelemetry(t, "cold model", first.Telemetry)
	if first.Telemetry.Route != "" {
		t.Fatalf("model response stamped a single-op route %q", first.Telemetry.Route)
	}
	if first.Telemetry.RouteCold == 0 || first.Telemetry.ReconcileUs <= 0 {
		t.Fatalf("cold model telemetry: %+v, want cold routes and reconcile time", first.Telemetry)
	}

	var second compileResponse
	if resp := postJSON(t, ts.URL+"/compile", model, &second); resp.StatusCode != http.StatusOK {
		t.Fatalf("warm model: %s", resp.Status)
	}
	checkTelemetry(t, "warm model", second.Telemetry)
	if second.Telemetry.RouteCold != 0 || second.Telemetry.RouteMemory == 0 {
		t.Fatalf("warm model telemetry: %+v, want all-memory routes", second.Telemetry)
	}
}

// TestTamperedDiskRecordRecompiles is the provenance acceptance path
// end-to-end through the server: a persisted v5 plan record is tampered
// with on disk, and the next request over a fresh process must answer
// 200 with a cold recompile (never the poisoned plans), count the
// rejection in /cachestats, and overwrite the record so the request
// after that is disk-warm again.
func TestTamperedDiskRecordRecompiles(t *testing.T) {
	dir := t.TempDir()
	const salt = "soak-secret"
	const op = `{"op":{"name":"prov","m":256,"k":512,"n":512}}`

	_, ts1 := telemetryServer(t, dir, salt, 0, 0)
	var sealed searchResponse
	if resp := postJSON(t, ts1.URL+"/compile", op, &sealed); resp.StatusCode != http.StatusOK {
		t.Fatalf("seeding compile: %s", resp.Status)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(files) != 1 {
		t.Fatalf("want exactly 1 persisted record, got %v (%v)", files, err)
	}
	raw, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	tampered := strings.Replace(string(raw), `"payload":{`, `"payload":{"poison":1,`, 1)
	if tampered == string(raw) {
		t.Fatal("test bug: tamper substitution did not apply")
	}
	if err := os.WriteFile(files[0], []byte(tampered), 0o644); err != nil {
		t.Fatal(err)
	}

	// a fresh process over the poisoned dir: 200 via a cold recompile
	_, ts2 := telemetryServer(t, dir, salt, 0, 0)
	var recompiled searchResponse
	if resp := postJSON(t, ts2.URL+"/compile", op, &recompiled); resp.StatusCode != http.StatusOK {
		t.Fatalf("compile over tampered record: %s", resp.Status)
	}
	checkTelemetry(t, "tampered-record compile", recompiled.Telemetry)
	if recompiled.Telemetry.Route != "cold" {
		t.Fatalf("tampered record answered via route %q, want cold", recompiled.Telemetry.Route)
	}
	aj, _ := json.Marshal(sealed.Pareto)
	bj, _ := json.Marshal(recompiled.Pareto)
	if string(aj) != string(bj) {
		t.Fatal("recompile over a tampered record selected different plans")
	}
	if st := getStats(t, ts2.URL); st.DiskRejects < 1 {
		t.Fatalf("cachestats = %+v, want the tampered record counted in disk_rejects", st)
	}

	// the fresh search overwrote the record: the next process is disk-warm
	_, ts3 := telemetryServer(t, dir, salt, 0, 0)
	var warm searchResponse
	if resp := postJSON(t, ts3.URL+"/compile", op, &warm); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-overwrite compile: %s", resp.Status)
	}
	if warm.Telemetry.Route != "disk" {
		t.Fatalf("overwritten record answered via route %q, want disk", warm.Telemetry.Route)
	}
}

// TestStatsAggregatesTelemetry checks /stats surfaces the server-wide
// telemetry aggregates: per-route counters, per-stage latency
// percentiles over the recent-request ring, and the detach gauges.
func TestStatsAggregatesTelemetry(t *testing.T) {
	_, ts := telemetryServer(t, "", "", 2, 0)

	const op = `{"op":{"name":"agg","m":256,"k":256,"n":512}}`
	for i := 0; i < 3; i++ {
		if resp := postJSON(t, ts.URL+"/compile", op, nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("compile %d: %s", i, resp.Status)
		}
	}
	st := fetchStats(t, ts.URL)
	if st.n("route_cold") != 1 || st.n("route_memory") != 2 {
		t.Errorf("route counters: cold=%d memory=%d, want 1 cold + 2 memory", st.n("route_cold"), st.n("route_memory"))
	}
	if st.n("latency", "wall", "samples") != 3 || st.n("latency", "cold_search", "samples") != 3 {
		t.Errorf("latency rings hold %d/%d samples, want 3", st.n("latency", "wall", "samples"), st.n("latency", "cold_search", "samples"))
	}
	if st.n("latency", "wall", "p50_us") <= 0 || st.n("latency", "wall", "p99_us") < st.n("latency", "wall", "p50_us") {
		t.Errorf("wall percentiles malformed: %+v", st["latency"])
	}
	if st.n("detached_active") != 0 || st.n("detached_rejected") != 0 {
		t.Errorf("idle detach gauges: active=%d rejected=%d, want 0/0", st.n("detached_active"), st.n("detached_rejected"))
	}
}

// TestLatRingPercentiles pins the ring arithmetic directly: known
// values in, lower-index percentiles out, and wrap-around keeping only
// the latest latRingSize samples.
func TestLatRingPercentiles(t *testing.T) {
	var r latRing
	if p := r.percentiles(); p.Samples != 0 || p.P99Us != 0 {
		t.Fatalf("empty ring percentiles: %+v", p)
	}
	for i := 1; i <= 100; i++ {
		r.add(time.Duration(i) * time.Microsecond)
	}
	p := r.percentiles()
	if p.Samples != 100 || p.P50Us != 50 || p.P95Us != 95 || p.P99Us != 99 {
		t.Fatalf("percentiles over 1..100µs: %+v", p)
	}
	// overflow the ring: only the last latRingSize values count
	for i := 0; i < latRingSize; i++ {
		r.add(7 * time.Microsecond)
	}
	p = r.percentiles()
	if p.Samples != latRingSize || p.P50Us != 7 || p.P99Us != 7 {
		t.Fatalf("percentiles after wrap: %+v", p)
	}
}

// TestDetachGaugesDrainAfterCancellations exercises the detach path
// over HTTP: doomed requests (deadline expiring mid-search) under
// detach-on-cancel answer 503, their background searches drain, and the
// /stats gauge returns to zero. (The deterministic cap-rejection
// semantics are pinned at the t10 level, where the limiter's slots can
// be occupied directly.)
func TestDetachGaugesDrainAfterCancellations(t *testing.T) {
	s, ts := telemetryServer(t, "", "", 1, 15*time.Millisecond)
	s.detach = true

	for i := 0; i < 3; i++ {
		body := fmt.Sprintf(`{"op":{"name":"doomed%d","m":1024,"k":1024,"n":%d}}`, i, 2048+512*i)
		resp := postJSON(t, ts.URL+"/compile", body, nil)
		if resp.StatusCode != http.StatusServiceUnavailable && resp.StatusCode != http.StatusOK {
			t.Fatalf("doomed request %d: status %d, want 503 (or 200 if it won the race)", i, resp.StatusCode)
		}
	}
	deadline := time.Now().Add(30 * time.Second)
	for s.detachLimit.Active() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("detached work never drained: active=%d", s.detachLimit.Active())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if active := fetchStats(t, ts.URL).n("detached_active"); active != 0 {
		t.Errorf("detached_active = %d after drain, want 0", active)
	}
}

// TestTelemetryBlockGolden pins the /compile telemetry block byte for
// byte, through encoding/json and through the hand appender the replies
// use: every key, its order, and which keys a zero record omits.
// Clients and the benchmark's response parser read these names.
func TestTelemetryBlockGolden(t *testing.T) {
	s := newServer(nil, nil, 0)
	var tel t10.Telemetry
	tel.AdmissionWait = 1 * time.Microsecond
	tel.CacheProbe = 2 * time.Microsecond
	tel.ColdSearch = 3 * time.Microsecond
	tel.Reconcile = 4 * time.Microsecond
	tel.Wall = 50 * time.Microsecond
	tel.AdmissionWeight = 6
	tel.RouteMemory = 7
	tel.RouteDisk = 8
	tel.RouteRemote = 9
	tel.RouteFlightWait = 10
	tel.RouteCold = 11
	tel.FusedGroups = 12
	tel.FusedOps = 13
	tel.Filtered = 14
	tel.Priced = 15
	tel.Pruned = 16
	tel.Seeded = 17
	tel.CutSubtrees = 18
	tel.CutLeaves = 19
	var op searchResponse
	op.setTelemetry(s.recordTelemetry(&tel))
	const full = `{"admission_wait_us":1,"cache_probe_us":2,"cold_search_us":3,"reconcile_us":4,"wall_us":50,` +
		`"admission_weight":6,"route":"cold","route_memory":7,"route_disk":8,"route_remote":9,` +
		`"route_singleflight":10,"route_cold":11,"fused_groups":12,"fused_ops":13,"filtered":14,` +
		`"priced":15,"pruned":16,"seeded":17,"cut_subtrees":18,"cut_leaves":19}`
	if got, err := json.Marshal(op.Telemetry); err != nil || string(got) != full {
		t.Fatalf("full block = %s (err %v),\nwant %s", got, err, full)
	}
	if got := appended(op.Telemetry); got != full {
		t.Fatalf("full block appended = %s,\nwant %s", got, full)
	}

	var model compileResponse
	model.setTelemetry(s.recordTelemetry(&t10.Telemetry{}))
	const zero = `{"admission_wait_us":0,"cache_probe_us":0,"cold_search_us":0,"reconcile_us":0,"wall_us":0,` +
		`"admission_weight":0,"route_memory":0,"route_disk":0,"route_remote":0,"route_singleflight":0,"route_cold":0}`
	if got, err := json.Marshal(model.Telemetry); err != nil || string(got) != zero {
		t.Fatalf("zero block = %s (err %v),\nwant %s", got, err, zero)
	}
	if got := appended(model.Telemetry); got != zero {
		t.Fatalf("zero block appended = %s,\nwant %s", got, zero)
	}
}

// appended is the telemetry block as the /compile replies write it.
func appended(tel *telemetryJSON) string {
	var e replyEncoder
	tel.appendJSON(&e)
	return string(e.b)
}
