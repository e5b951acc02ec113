package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/plancache"
	"repro/internal/plancache/chaostest"
	"repro/internal/sema"
	"repro/t10"
)

// chaosSeed is the reproducible fault schedule: T10_CHAOS_SEED when set
// (the `make chaos` knob — rerun a failing soak byte-identically), a
// fixed default otherwise.
func chaosSeed(t *testing.T) int64 {
	t.Helper()
	if s := os.Getenv("T10_CHAOS_SEED"); s != "" {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("T10_CHAOS_SEED=%q: %v", s, err)
		}
		t.Logf("chaos seed %d (from T10_CHAOS_SEED)", n)
		return n
	}
	return 20240807
}

// replicaOptions configures one fleet replica for tests.
type replicaOptions struct {
	dir    string            // plan-cache dir ("" = diskless)
	salt   string            // deployment secret
	remote *plancache.Remote // peer tier (nil = standalone)
}

// fleetReplica starts one t10serve replica — its own compiler, cache
// dir and worker budget, exactly the multi-process topology, just
// in-process so the race detector sees all of it.
func fleetReplica(t *testing.T, o replicaOptions) (*server, *httptest.Server) {
	t.Helper()
	pool := sema.NewShared(runtime.GOMAXPROCS(0), 1024)
	opts := t10.DefaultOptions()
	opts.SharedCache = plancache.New(plancache.Options{Dir: o.dir, Salt: []byte(o.salt)})
	opts.SharedCache.SetRemote(o.remote)
	opts.SharedPool = pool
	c, err := t10.New(device.IPUMK2(), opts)
	if err != nil {
		t.Fatal(err)
	}
	s := newServer(c, pool, 30*time.Second)
	s.remote = o.remote
	ts := httptest.NewServer(s.mux())
	t.Cleanup(func() { ts.Close(); o.remote.Close() })
	return s, ts
}

// remoteStats pulls the /stats remote section.
func remoteStats(t *testing.T, base string) *plancache.RemoteStats {
	t.Helper()
	resp, err := http.Get(base + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st struct {
		Remote *plancache.RemoteStats `json:"remote"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st.Remote
}

// TestFleetSharesWarmth is the acceptance scenario: replica A pays the
// cold search; replica B — a different process with a different (empty)
// cache dir — answers the same operator over the remote route, visible
// in both its response telemetry and its /stats.
func TestFleetSharesWarmth(t *testing.T) {
	const salt = "fleet-secret"
	const op = `{"op":{"name":"warmth","m":256,"k":256,"n":512}}`

	_, a := fleetReplica(t, replicaOptions{dir: t.TempDir(), salt: salt})
	var cold searchResponse
	if resp := postJSON(t, a.URL+"/compile", op, &cold); resp.StatusCode != http.StatusOK {
		t.Fatalf("replica A cold compile: %s", resp.Status)
	}
	if cold.Telemetry.Route != "cold" {
		t.Fatalf("replica A route = %q, want cold", cold.Telemetry.Route)
	}

	remote := plancache.NewRemote(plancache.RemoteOptions{Peers: []string{a.URL}, Seed: 1})
	_, b := fleetReplica(t, replicaOptions{dir: t.TempDir(), salt: salt, remote: remote})
	var warm searchResponse
	if resp := postJSON(t, b.URL+"/compile", op, &warm); resp.StatusCode != http.StatusOK {
		t.Fatalf("replica B compile: %s", resp.Status)
	}
	checkTelemetry(t, "remote-warmed op", warm.Telemetry)
	if warm.Telemetry.Route != "remote" || warm.Telemetry.RouteRemote != 1 {
		t.Fatalf("replica B telemetry = %+v, want the remote route", warm.Telemetry)
	}
	if warm.Telemetry.ColdSearchUs != 0 {
		t.Fatalf("replica B burned %dµs of cold search despite the remote hit", warm.Telemetry.ColdSearchUs)
	}

	// /stats agrees on both sides of the wire
	rs := remoteStats(t, b.URL)
	if rs == nil || rs.Hits != 1 {
		t.Fatalf("replica B /stats remote = %+v, want one fetch hit", rs)
	}
	if len(rs.Peers) != 1 || rs.Peers[0].State != "closed" || rs.Peers[0].Hits != 1 {
		t.Fatalf("replica B peer ledger = %+v, want a healthy peer with one hit", rs.Peers)
	}
	if st := getStats(t, b.URL); st.RemoteHits != 1 {
		t.Fatalf("replica B /cachestats = %+v, want one remote hit", st)
	}

	// the remote record was written through to B's disk: a re-request
	// answers locally (memory), and B can now serve it as a peer itself
	var again searchResponse
	if resp := postJSON(t, b.URL+"/compile", op, &again); resp.StatusCode != http.StatusOK {
		t.Fatalf("replica B re-compile: %s", resp.Status)
	}
	if again.Telemetry.Route != "memory" {
		t.Fatalf("replica B second route = %q, want memory", again.Telemetry.Route)
	}
}

// TestFleetPublishWarmsPeer drives the push direction: replica A's cold
// search publishes the sealed record to replica B, whose next compile
// answers from its own disk without a remote fetch or a search.
func TestFleetPublishWarmsPeer(t *testing.T) {
	const salt = "fleet-secret"
	const op = `{"op":{"name":"pushed","m":256,"k":256,"n":512}}`

	_, b := fleetReplica(t, replicaOptions{dir: t.TempDir(), salt: salt})
	remote := plancache.NewRemote(plancache.RemoteOptions{Peers: []string{b.URL}, Seed: 1})
	sa, a := fleetReplica(t, replicaOptions{dir: t.TempDir(), salt: salt, remote: remote})

	if resp := postJSON(t, a.URL+"/compile", op, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("replica A compile: %s", resp.Status)
	}
	// the publish is fire-and-forget; wait for it to land on B's disk
	deadline := time.Now().Add(10 * time.Second)
	for sa.remote.Stats().Publishes == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("publish never completed: %+v", sa.remote.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st := getStats(t, b.URL); st.DiskWrites == 0 {
		t.Fatalf("replica B /cachestats = %+v, want the pushed record written", st)
	}
	var warm searchResponse
	if resp := postJSON(t, b.URL+"/compile", op, &warm); resp.StatusCode != http.StatusOK {
		t.Fatalf("replica B compile: %s", resp.Status)
	}
	if warm.Telemetry.Route != "disk" {
		t.Fatalf("replica B route = %q, want disk (warmed by A's push)", warm.Telemetry.Route)
	}
}

// TestPlansEndpointStatuses pins the /plans wire contract both peers
// program against.
func TestPlansEndpointStatuses(t *testing.T) {
	const salt = "fleet-secret"
	_, ts := fleetReplica(t, replicaOptions{dir: t.TempDir(), salt: salt})

	k := plancache.Fingerprint("wire-contract")
	sealer := plancache.New(plancache.Options{Dir: t.TempDir(), Salt: []byte(salt)})
	if err := sealer.PutBlob(k, []byte(`{"pareto":[]}`)); err != nil {
		t.Fatal(err)
	}
	sealed, _ := sealer.RawBlob(k)

	do := func(method, path string, body []byte) *http.Response {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}

	if resp := do(http.MethodGet, "/plans/not-a-key", nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed key: %s, want 400", resp.Status)
	}
	if resp := do(http.MethodGet, "/plans/"+k.String(), nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown key: %s, want 404", resp.Status)
	}
	if resp := do(http.MethodDelete, "/plans/"+k.String(), nil); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("DELETE: %s, want 405", resp.Status)
	}
	if resp := do(http.MethodPut, "/plans/"+k.String(), []byte("garbage")); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("garbage PUT: %s, want 422", resp.Status)
	}
	if resp := do(http.MethodPut, "/plans/"+k.String(), sealed); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("valid PUT: %s, want 204", resp.Status)
	}
	if resp := do(http.MethodGet, "/plans/"+k.String(), nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET after PUT: %s, want 200", resp.Status)
	}

	// a diskless replica has nowhere to store pushed records
	_, diskless := fleetReplica(t, replicaOptions{salt: salt})
	req, _ := http.NewRequest(http.MethodPut, diskless.URL+"/plans/"+k.String(), bytes.NewReader(sealed))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("diskless PUT: %s, want 409", resp.Status)
	}
}

// TestFleetStaleBuilderRecords is the fleet half of the builder-bump
// upgrade regression: during a rolling upgrade, replicas still running
// an earlier pipeline keep pushing and serving records sealed under the
// old builder. A current replica must reject both directions as counted
// provenance failures — 422 on a pushed record, a counted remote reject
// plus a clean cold compile on a fetched one — and never rehydrate the
// old era's plans. The next bump is a row.
func TestFleetStaleBuilderRecords(t *testing.T) {
	const salt = "fleet-secret"
	for _, tc := range []struct {
		version int
		era     string // what the current builder cannot trust about the old records
	}{
		{5, "pre-fusion plans"},
		{6, "plans priced by a fit the current builder cannot name"},
		{7, "plans keyed by specs with no generation component or interconnect"},
	} {
		t.Run(fmt.Sprintf("v%d", tc.version), func(t *testing.T) {
			builder := fmt.Sprintf("t10-builder/%d", tc.version)

			// push direction: an old replica PUTs its sealed record to /plans
			sv, ts := fleetReplica(t, replicaOptions{dir: t.TempDir(), salt: salt})
			k := plancache.Fingerprint(fmt.Sprintf("rolling-upgrade-v%d", tc.version+1))
			old := plancache.New(plancache.Options{Dir: t.TempDir(), Salt: []byte(salt), Builder: builder})
			if err := old.PutBlob(k, []byte(`{"pareto":[]}`)); err != nil {
				t.Fatal(err)
			}
			staleSealed, _ := old.RawBlob(k)
			req, err := http.NewRequest(http.MethodPut, ts.URL+"/plans/"+k.String(), bytes.NewReader(staleSealed))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusUnprocessableEntity {
				t.Fatalf("%s-sealed PUT: %s, want 422", builder, resp.Status)
			}
			if got := sv.plans.PlanPutRejects.Load(); got != 1 {
				t.Fatalf("plan_put_rejects = %d, want the stale push counted", got)
			}
			if st := getStats(t, ts.URL); st.ImportRejects != 1 {
				t.Fatalf("/cachestats = %+v, want import_rejects = 1", st)
			}
			if _, ok := plancache.New(plancache.Options{Dir: t.TempDir(), Salt: []byte(salt)}).GetBlob(k); ok {
				t.Fatal("sanity: empty-dir cache loaded something")
			}

			// fetch direction: a peer that answers every /plans GET with a
			// record sealed under the requested key by the old builder —
			// exactly what a not-yet-upgraded replica's store serves during
			// the rollout
			stalePeer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				pk, ok := plancache.ParseKey(strings.TrimPrefix(r.URL.Path, "/plans/"))
				if !ok || r.Method != http.MethodGet {
					http.NotFound(w, r)
					return
				}
				if err := old.PutBlob(pk, []byte(`{"pareto":[]}`)); err != nil {
					t.Error(err)
				}
				raw, _ := old.RawBlob(pk)
				w.Header().Set("Content-Type", "application/json")
				w.Write(raw)
			}))
			t.Cleanup(stalePeer.Close)

			remote := plancache.NewRemote(plancache.RemoteOptions{Peers: []string{stalePeer.URL}, Seed: 1})
			_, b := fleetReplica(t, replicaOptions{dir: t.TempDir(), salt: salt, remote: remote})
			var out searchResponse
			op := fmt.Sprintf(`{"op":{"name":"upgrade-v%d","m":256,"k":256,"n":512}}`, tc.version+1)
			if resp := postJSON(t, b.URL+"/compile", op, &out); resp.StatusCode != http.StatusOK {
				t.Fatalf("compile against a stale-peer fleet: %s, want a clean 200", resp.Status)
			}
			checkTelemetry(t, "stale-peer compile", out.Telemetry)
			if out.Telemetry.Route != "cold" {
				t.Fatalf("route = %q, want cold (the %s peer record — %s — must not rehydrate)",
					out.Telemetry.Route, builder, tc.era)
			}
			rs := remoteStats(t, b.URL)
			if rs == nil || rs.Rejects < 1 {
				t.Fatalf("replica B remote stats = %+v, want the stale peer record counted as a reject", rs)
			}
			if st := getStats(t, b.URL); st.RemoteRejects < 1 {
				t.Fatalf("/cachestats = %+v, want remote_rejects counted", st)
			}
		})
	}
}

// TestChaosSoakFleet is the headline robustness soak: a replica whose
// peers include one healthy replica reached through a fault-injecting
// transport (resets, 5xx, stalls past the timeout, latency, corrupted
// payloads) and one peer that is plain dead. Under that fleet, every
// client request must still complete as a clean 200/429/503 — the
// remote tier may only ever degrade to counted misses/rejects, visible
// in /stats afterwards.
func TestChaosSoakFleet(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak in -short mode")
	}
	const salt = "fleet-secret"

	// replica A: healthy, takes real traffic too, so its plan store has
	// records worth fetching
	_, a := fleetReplica(t, replicaOptions{dir: t.TempDir(), salt: salt})
	ops := make([]string, 6)
	for i := range ops {
		ops[i] = fmt.Sprintf(`{"op":{"name":"chaos-%d","m":%d,"k":128,"n":256}}`, i, 128+64*i)
		if resp := postJSON(t, a.URL+"/compile", ops[i], nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("warm replica A: %s", resp.Status)
		}
	}

	// a peer that is not even listening
	deadSrv := httptest.NewServer(http.NotFoundHandler())
	deadURL := deadSrv.URL
	deadSrv.Close()

	chaos := chaostest.NewTransport(chaostest.Options{
		Seed: chaosSeed(t), ResetProb: 0.15, Code5xxProb: 0.15, TimeoutProb: 0.1,
		LatencyProb: 0.1, Latency: 2 * time.Millisecond, CorruptProb: 0.15,
	})
	remote := plancache.NewRemote(plancache.RemoteOptions{
		Peers:     []string{a.URL, deadURL},
		Transport: chaos,
		Seed:      chaosSeed(t),
	})
	sb, b := fleetReplica(t, replicaOptions{dir: t.TempDir(), salt: salt, remote: remote})

	const clients = 8
	const perClient = 25
	var wg sync.WaitGroup
	statuses := make([]map[int]int, clients)
	for c := 0; c < clients; c++ {
		statuses[c] = map[int]int{}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				var out searchResponse
				resp := postJSON(t, b.URL+"/compile", ops[(c+i)%len(ops)], &out)
				statuses[c][resp.StatusCode]++
				if resp.StatusCode == http.StatusOK {
					checkTelemetry(t, "chaos soak", out.Telemetry)
				}
			}
		}(c)
	}
	wg.Wait()

	total := 0
	for c := range statuses {
		for code, n := range statuses[c] {
			total += n
			switch code {
			case http.StatusOK, http.StatusTooManyRequests, http.StatusServiceUnavailable:
			default:
				t.Fatalf("chaos soak produced status %d (%d times) — peers must never surface as anything but 200/429/503", code, n)
			}
		}
	}
	if total != clients*perClient {
		t.Fatalf("%d responses for %d requests", total, clients*perClient)
	}
	if chaos.Injected() == 0 {
		t.Fatal("chaos injected nothing; the soak proved nothing")
	}

	// failures surfaced only as counted misses/rejects; the dead peer's
	// breaker tripped instead of taxing every request
	rs := remoteStats(t, b.URL)
	if rs == nil {
		t.Fatal("replica B /stats has no remote section")
	}
	if rs.Misses+rs.Hits+rs.Rejects == 0 {
		t.Fatalf("remote stats = %+v, want activity recorded", rs)
	}
	var deadPeer *plancache.PeerStats
	for i := range rs.Peers {
		if rs.Peers[i].URL == deadURL {
			deadPeer = &rs.Peers[i]
		}
	}
	if deadPeer == nil || deadPeer.Trips == 0 {
		t.Fatalf("dead peer ledger = %+v, want its breaker tripped", deadPeer)
	}
	// and the local store was never poisoned: replica B's records all
	// verify (a full local re-read of every op answers without rejects)
	before := getStats(t, b.URL).DiskRejects
	for _, op := range ops {
		if resp := postJSON(t, b.URL+"/compile", op, nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("post-soak compile: %s", resp.Status)
		}
	}
	if after := getStats(t, b.URL).DiskRejects; after != before {
		t.Fatalf("disk rejects moved %d -> %d: corrupted records reached replica B's store", before, after)
	}
	_ = sb
}
