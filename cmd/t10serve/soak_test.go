package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/sema"
	"repro/t10"
)

// soakServer builds a deliberately tight server: a small shared worker
// budget and a short admission queue, so a request burst actually
// saturates it.
func soakServer(t *testing.T, budget, queueLen int, timeout time.Duration) (*server, *httptest.Server, *sema.Sem) {
	t.Helper()
	pool := sema.NewShared(budget, queueLen)
	opts := t10.DefaultOptions()
	opts.Workers = budget
	opts.SharedPool = pool
	c, err := t10.New(device.IPUMK2(), opts)
	if err != nil {
		t.Fatal(err)
	}
	s := newServer(c, pool, timeout)
	ts := httptest.NewServer(s.mux())
	t.Cleanup(ts.Close)
	return s, ts, pool
}

// TestServeSoakUnderSharedBudget fires 32 parallel /compile requests —
// mixed models and ops, some with client deadlines that expire
// mid-search — at a server with a 3-worker budget and a 6-deep
// admission queue, under the race detector. It asserts the shared
// semaphore's instrumented live-worker peak never exceeds the budget,
// that every received response is either valid JSON with 200 or a
// clean 429/503, that every 200 carries a well-formed telemetry block,
// and that the server drains back to idle.
func TestServeSoakUnderSharedBudget(t *testing.T) {
	const (
		budget   = 3
		queueLen = 6
		parallel = 32
	)
	s, ts, pool := soakServer(t, budget, queueLen, 0)

	bodies := make([]string, parallel)
	deadline := make([]time.Duration, parallel)
	for i := range bodies {
		switch i % 4 {
		case 0:
			bodies[i] = fmt.Sprintf(`{"model":"BERT","batch":%d}`, 1+i%2)
		case 1:
			bodies[i] = fmt.Sprintf(`{"op":{"name":"soak","m":%d,"k":256,"n":512}}`, 256+64*(i%5))
		case 2:
			bodies[i] = fmt.Sprintf(`{"op":{"name":"soak2","m":512,"k":%d,"n":256}}`, 128+128*(i%3))
		default:
			// a deadline tuned to expire mid-search
			bodies[i] = fmt.Sprintf(`{"op":{"name":"doomed","m":1024,"k":1024,"n":%d}}`, 2048+512*(i%3))
			deadline[i] = time.Duration(1+i%10) * time.Millisecond
		}
	}

	type outcome struct {
		status    int
		transport bool // client-side error (its own deadline fired)
		jsonOK    bool
		tel       *telemetryJSON // telemetry block carried by a 200
	}
	outcomes := make([]outcome, parallel)
	var wg sync.WaitGroup
	for i := 0; i < parallel; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := context.Background()
			if deadline[i] > 0 {
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, deadline[i])
				defer cancel()
			}
			req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/compile", strings.NewReader(bodies[i]))
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			req.Header.Set("Content-Type", "application/json")
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				if deadline[i] == 0 {
					t.Errorf("request %d: transport error without a deadline: %v", i, err)
				}
				outcomes[i] = outcome{transport: true}
				return
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(resp.Body)
			if err != nil {
				if deadline[i] == 0 {
					t.Errorf("request %d: reading the body without a deadline: %v", i, err)
				}
				// its own deadline fired between the headers and the body
				outcomes[i] = outcome{transport: true}
				return
			}
			var decoded struct {
				Telemetry *telemetryJSON `json:"telemetry"`
			}
			outcomes[i] = outcome{
				status: resp.StatusCode,
				jsonOK: json.Unmarshal(body, &decoded) == nil,
				tel:    decoded.Telemetry,
			}
			switch resp.StatusCode {
			case http.StatusOK, http.StatusServiceUnavailable:
			case http.StatusTooManyRequests:
				if resp.Header.Get("Retry-After") == "" {
					t.Errorf("request %d: 429 without Retry-After", i)
				}
			default:
				t.Errorf("request %d (%s): status %d, want 200/429/503", i, bodies[i], resp.StatusCode)
			}
		}()
	}
	wg.Wait()
	// A client whose deadline fired has returned, but its handler may
	// still be finishing work that does not poll the request context,
	// holding budget slots until it returns. Close blocks until every
	// handler has returned, so the drain checks below see the budget
	// the burst really leaves behind; a fresh listener on the same
	// server serves the post-burst checks.
	ts.Close()
	ts = httptest.NewServer(s.mux())
	t.Cleanup(ts.Close)

	// the instrumented semaphore proves the admission discipline: the
	// live-worker peak across all 32 requests stayed within the budget
	if peak := pool.Peak(); peak > budget {
		t.Fatalf("live worker goroutine peak %d exceeds the shared budget %d", peak, budget)
	}
	if inUse := pool.InUse(); inUse != 0 {
		t.Fatalf("%d budget slots leaked after the burst", inUse)
	}
	if waiting := pool.Waiting(); waiting != 0 {
		t.Fatalf("%d admissions still queued after the burst", waiting)
	}
	var got, bad int
	for i, o := range outcomes {
		if o.transport {
			continue
		}
		got++
		if !o.jsonOK {
			bad++
			t.Errorf("request %d: status %d body is not valid JSON", i, o.status)
		}
		// every 200 under the burst carries a well-formed telemetry block:
		// stages within the wall, routes covering the request, route names
		// from the four-value enum
		if o.status == http.StatusOK {
			checkTelemetry(t, fmt.Sprintf("soak request %d", i), o.tel)
		}
	}
	if got == 0 {
		t.Fatal("no request produced a response at all")
	}
	t.Logf("soak: %d responses (%d non-JSON), peak workers %d/%d", got, bad, pool.Peak(), budget)

	// with the burst drained, a fresh request must go straight through
	var after searchResponse
	if resp := postJSON(t, ts.URL+"/compile", `{"op":{"name":"after","m":256,"k":256,"n":256}}`, &after); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-burst compile: %s", resp.Status)
	}
	if len(after.Pareto) == 0 {
		t.Fatal("post-burst compile returned no plans")
	}
	st := fetchStats(t, ts.URL)
	if st.n("in_flight") != 0 || st.n("queued") != 0 || st.n("busy_workers") != 0 {
		t.Errorf("drained server reports in_flight=%d queued=%d busy=%d", st.n("in_flight"), st.n("queued"), st.n("busy_workers"))
	}
	if st.n("completed") < 1 {
		t.Errorf("completed = %d, want >= 1", st.n("completed"))
	}
}

// TestServeCheapTrafficUnderHeavyLoad is the cost-weighted admission
// scenario: the pool is saturated with cold, heavy compiles (each
// admitted at a weight ≥ the pool capacity on this tiny budget), while
// a stream of cache-probe requests — the same op, already compiled
// once, so EstimateCost prices them at weight 0 — keeps arriving.
// Every probe must succeed with 200: weight-0 requests bypass
// admission, so saturation and even queue overflow (heavy requests may
// legitimately shed with 429) can never starve cheap traffic.
func TestServeCheapTrafficUnderHeavyLoad(t *testing.T) {
	const (
		budget   = 2
		queueLen = 1
		heavies  = 6
		probes   = 12
	)
	s, ts, pool := soakServer(t, budget, queueLen, 0)

	// prime the cache with the cheap op
	const cheap = `{"op":{"name":"cheap","m":256,"k":256,"n":256}}`
	if resp := postJSON(t, ts.URL+"/compile", cheap, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("priming compile: %s", resp.Status)
	}

	var wg sync.WaitGroup
	heavyStatus := make([]int, heavies)
	for i := 0; i < heavies; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			// unique shapes: every heavy request is a cold search
			body := fmt.Sprintf(`{"op":{"name":"heavy","m":1024,"k":1024,"n":%d}}`, 2048+128*i)
			resp := postJSON(t, ts.URL+"/compile", body, nil)
			heavyStatus[i] = resp.StatusCode
		}()
	}
	probeStatus := make([]int, probes)
	for i := 0; i < probes; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp := postJSON(t, ts.URL+"/compile", cheap, nil)
			probeStatus[i] = resp.StatusCode
		}()
	}
	wg.Wait()

	for i, st := range probeStatus {
		if st != http.StatusOK {
			t.Errorf("cache-probe request %d: status %d, want 200 even under saturation", i, st)
		}
	}
	for i, st := range heavyStatus {
		if st != http.StatusOK && st != http.StatusTooManyRequests {
			t.Errorf("heavy request %d: status %d, want 200 or 429", i, st)
		}
	}
	if got := s.stats.ProbeRequests.Load(); got < probes {
		t.Errorf("probe_requests = %d, want >= %d (cache probes must be priced at weight 0)", got, probes)
	}
	if got := s.stats.HeavyRequests.Load(); got < 1 {
		t.Errorf("heavy_requests = %d, want >= 1 (cold heavy compiles must weigh > 1 slot)", got)
	}
	if peak := pool.Peak(); peak > budget {
		t.Fatalf("live worker peak %d exceeds the shared budget %d", peak, budget)
	}
	if inUse := pool.InUse(); inUse != 0 {
		t.Fatalf("%d budget slots leaked", inUse)
	}

	st := fetchStats(t, ts.URL)
	if st.n("probe_requests") < probes || st.n("heavy_requests") < 1 || st.n("weight_admitted") < st.n("heavy_requests")*2 {
		t.Errorf("weight counters not surfaced in /stats: %+v", st)
	}
}

// TestCompileDeadlineReturns503 pins the deadline path: a server-side
// compile timeout that can never be met answers 503 with Retry-After
// and a JSON error body, and the slot is returned to the budget.
func TestCompileDeadlineReturns503(t *testing.T) {
	_, ts, pool := soakServer(t, 2, 4, time.Nanosecond)
	resp := postJSON(t, ts.URL+"/compile", `{"op":{"name":"mm","m":512,"k":512,"n":512}}`, nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("expired deadline: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("503 Content-Type %q, want application/json", ct)
	}
	if inUse := pool.InUse(); inUse != 0 {
		t.Fatalf("%d budget slots leaked by the expired request", inUse)
	}
}

// TestQueueSaturationReturns429 occupies the whole budget and queue
// with slow compiles, then asserts the next request sheds with 429
// immediately instead of waiting.
func TestQueueSaturationReturns429(t *testing.T) {
	s, ts, pool := soakServer(t, 1, 0, 0)
	// occupy the only slot directly through the pool — deterministic,
	// no timing games
	if !pool.TryAcquire(1) {
		t.Fatal("could not occupy the budget")
	}
	resp := postJSON(t, ts.URL+"/compile", `{"op":{"name":"mm","m":256,"k":256,"n":256}}`, nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated server: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if got := s.stats.Rejected.Load(); got != 1 {
		t.Errorf("rejected counter = %d, want 1", got)
	}
	pool.Release(1)
	if resp := postJSON(t, ts.URL+"/compile", `{"op":{"name":"mm","m":256,"k":256,"n":256}}`, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-release compile: %s", resp.Status)
	}
}
