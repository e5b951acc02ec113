package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/device"
	"repro/internal/models"
	"repro/internal/plancache"
	"repro/internal/sema"
	"repro/t10"
)

var (
	srvOnce sync.Once
	srv     *httptest.Server
)

// testServer builds one shared server with a generous admission queue,
// so the functional tests never shed load (the soak test builds its own
// deliberately tight server).
func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	srvOnce.Do(func() {
		pool := sema.NewShared(runtime.GOMAXPROCS(0), 1024)
		opts := t10.DefaultOptions()
		opts.SharedPool = pool
		c, err := t10.New(device.IPUMK2(), opts)
		if err != nil {
			panic(err)
		}
		srv = httptest.NewServer(newServer(c, pool, 0).mux())
	})
	return srv
}

func postJSON(t *testing.T, url, body string, out any) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp
}

func getStats(t *testing.T, base string) plancache.Stats {
	t.Helper()
	resp, err := http.Get(base + "/cachestats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/cachestats: %s", resp.Status)
	}
	var st plancache.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestCompileBERTTwiceHitsCache is the serving acceptance scenario:
// the second identical request answers every one of its operator
// searches from the plan cache (one lookup per unique search), visible
// in /cachestats.
func TestCompileBERTTwiceHitsCache(t *testing.T) {
	s := testServer(t)
	const req = `{"model":"BERT","batch":8}`

	var first compileResponse
	if resp := postJSON(t, s.URL+"/compile", req, &first); resp.StatusCode != http.StatusOK {
		t.Fatalf("first compile: %s", resp.Status)
	}
	if first.Ops == 0 || len(first.Plans) != first.Ops {
		t.Fatalf("bad first response: %+v", first)
	}
	before := getStats(t, s.URL)

	var second compileResponse
	if resp := postJSON(t, s.URL+"/compile", req, &second); resp.StatusCode != http.StatusOK {
		t.Fatalf("second compile: %s", resp.Status)
	}
	after := getStats(t, s.URL)

	uniq := int64(first.Telemetry.RouteCold + first.Telemetry.RouteMemory)
	if hits := after.Hits - before.Hits; uniq == 0 || hits != uniq || int64(second.Telemetry.RouteMemory) != uniq {
		t.Errorf("second compile: %d cache hits, %d memory routes for %d unique operator searches",
			hits, second.Telemetry.RouteMemory, uniq)
	}
	if after.Misses != before.Misses {
		t.Errorf("second compile missed the cache %d times", after.Misses-before.Misses)
	}
	// identical requests must select identical plans
	aj, _ := json.Marshal(first.Plans)
	bj, _ := json.Marshal(second.Plans)
	if string(aj) != string(bj) {
		t.Error("repeated compile selected different plans")
	}
	if ops := len(models.BERT(8).Ops); first.Ops != ops {
		t.Errorf("served %d ops, model has %d", first.Ops, ops)
	}
}

func TestCompileWithSimulate(t *testing.T) {
	s := testServer(t)
	var resp compileResponse
	if r := postJSON(t, s.URL+"/compile", `{"model":"BERT","batch":1,"simulate":true}`, &resp); r.StatusCode != http.StatusOK {
		t.Fatalf("compile: %s", r.Status)
	}
	if resp.LatencyMs <= 0 {
		t.Errorf("simulate=true returned latency %v", resp.LatencyMs)
	}
}

func TestCompileOpSpec(t *testing.T) {
	s := testServer(t)
	var resp searchResponse
	r := postJSON(t, s.URL+"/compile",
		`{"op":{"name":"mm","m":1024,"k":1024,"n":4096,"dtype":"fp16"}}`, &resp)
	if r.StatusCode != http.StatusOK {
		t.Fatalf("op search: %s", r.Status)
	}
	if len(resp.Pareto) == 0 {
		t.Fatal("no Pareto plans returned")
	}
}

func TestBadRequests(t *testing.T) {
	s := testServer(t)
	cases := []struct {
		body string
		want int
	}{
		{`{`, http.StatusBadRequest},
		{`{}`, http.StatusBadRequest},
		{`{"model":"NoSuchModel"}`, http.StatusBadRequest},
		{`{"op":{"m":0,"k":1,"n":1}}`, http.StatusBadRequest},
		{`{"op":{"m":8,"k":8,"n":8,"dtype":"int7"}}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		if resp := postJSON(t, s.URL+"/compile", tc.body, nil); resp.StatusCode != tc.want {
			t.Errorf("body %q: status %d, want %d", tc.body, resp.StatusCode, tc.want)
		}
	}
	resp, err := http.Get(s.URL + "/compile")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /compile: %d, want 405", resp.StatusCode)
	}
}

// TestOversizedBodyRejectedWith413 posts a body past the MaxBytesReader
// limit: the reply must be 413 (not a generic 400) and still JSON.
func TestOversizedBodyRejectedWith413(t *testing.T) {
	s := testServer(t)
	big := `{"model":"BERT","pad":"` + strings.Repeat("x", maxBodyBytes+1) + `"}`
	resp := postJSON(t, s.URL+"/compile", big, nil)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("oversized body: Content-Type %q, want application/json", ct)
	}
	// a body of exactly maxBodyBytes is a well-formed (if padded)
	// request and must not trip the limiter
	env := `{"model":"BERT","batch":1,"pad":""}`
	small := `{"model":"BERT","batch":1,"pad":"` + strings.Repeat("x", maxBodyBytes-len(env)) + `"}`
	if len(small) != maxBodyBytes {
		t.Fatalf("test bug: boundary body is %d bytes, want %d", len(small), maxBodyBytes)
	}
	if resp := postJSON(t, s.URL+"/compile", small, nil); resp.StatusCode == http.StatusRequestEntityTooLarge {
		t.Error("body of exactly the limit rejected as too large")
	}
}

// TestJSONRepliesCarryContentType checks every JSON-bodied reply —
// success, client error and cache stats — sets the header.
func TestJSONRepliesCarryContentType(t *testing.T) {
	s := testServer(t)
	check := func(what string, resp *http.Response) {
		t.Helper()
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: Content-Type %q, want application/json", what, ct)
		}
	}
	check("compile op", postJSON(t, s.URL+"/compile", `{"op":{"name":"mm","m":64,"k":64,"n":64}}`, nil))
	check("bad request", postJSON(t, s.URL+"/compile", `{}`, nil))
	resp, err := http.Get(s.URL + "/cachestats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	check("cachestats", resp)
}

func TestHealthz(t *testing.T) {
	s := testServer(t)
	resp, err := http.Get(s.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; charset=utf-8" {
		t.Errorf("healthz: Content-Type %q, want text/plain; charset=utf-8", ct)
	}
	// load balancers commonly probe with HEAD
	head, err := http.Head(s.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	head.Body.Close()
	if head.StatusCode != http.StatusOK {
		t.Errorf("HEAD healthz: %s, want 200", head.Status)
	}
}

// TestMethodNotAllowedSetsAllow checks every endpoint's 405 reply names
// the allowed method and stays JSON.
func TestMethodNotAllowedSetsAllow(t *testing.T) {
	s := testServer(t)
	cases := []struct {
		method, path, allow string
	}{
		{http.MethodGet, "/compile", http.MethodPost},
		{http.MethodPost, "/cachestats", http.MethodGet},
		{http.MethodPost, "/stats", http.MethodGet},
		{http.MethodPost, "/healthz", "GET, HEAD"},
	}
	for _, tc := range cases {
		req, err := http.NewRequest(tc.method, s.URL+tc.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var body map[string]string
		decodeErr := json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s %s: status %d, want 405", tc.method, tc.path, resp.StatusCode)
		}
		if allow := resp.Header.Get("Allow"); allow != tc.allow {
			t.Errorf("%s %s: Allow %q, want %q", tc.method, tc.path, allow, tc.allow)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s %s: Content-Type %q, want application/json", tc.method, tc.path, ct)
		}
		if decodeErr != nil || body["error"] == "" {
			t.Errorf("%s %s: 405 body not a JSON error (%v)", tc.method, tc.path, decodeErr)
		}
	}
}

// TestStatsEndpoint checks /stats serves the serving counters and that
// a completed compile is visible in them.
func TestStatsEndpoint(t *testing.T) {
	s := testServer(t)
	if resp := postJSON(t, s.URL+"/compile", `{"op":{"name":"mm","m":64,"k":64,"n":128}}`, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("compile: %s", resp.Status)
	}
	st := fetchStats(t, s.URL)
	if st.n("budget") < 1 {
		t.Errorf("budget = %d, want >= 1", st.n("budget"))
	}
	if st.n("completed") < 1 {
		t.Errorf("completed = %d after a successful compile", st.n("completed"))
	}
	if st.n("in_flight") != 0 || st.n("queued") != 0 {
		t.Errorf("idle server reports in_flight=%d queued=%d", st.n("in_flight"), st.n("queued"))
	}
}

// TestOversizedOpRejected checks the request sanity caps: a plausible
// but absurd matmul is refused before it can monopolize the search.
func TestOversizedOpRejected(t *testing.T) {
	s := testServer(t)
	cases := []string{
		`{"op":{"m":2097152,"k":64,"n":64}}`,
		`{"model":"BERT","batch":100000}`,
	}
	for _, body := range cases {
		if resp := postJSON(t, s.URL+"/compile", body, nil); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status %d, want 400", body, resp.StatusCode)
		}
	}
}
