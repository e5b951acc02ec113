package main

import (
	"fmt"
	"net/http"
	"sync"
	"testing"
)

// TestServeShardedSoak drives concurrent 2-chip sharded compiles (mixed
// with single-chip traffic over the same plan cache and worker budget)
// and asserts every response describes a consistent partition, the
// shared budget holds, and /stats surfaces the scale-out counters. The
// race gate runs it with -race: the outer partition search, the
// memoized stage compiles and the plain compiles all share one
// compiler.
func TestServeShardedSoak(t *testing.T) {
	const (
		budget   = 3
		queueLen = 16
		parallel = 12
	)
	s, ts, pool := soakServer(t, budget, queueLen, 0)

	bodies := make([]string, parallel)
	sharded := make([]bool, parallel)
	for i := range bodies {
		switch i % 3 {
		case 0:
			bodies[i] = `{"model":"BERT","batch":1,"chips":2,"simulate":true}`
			sharded[i] = true
		case 1:
			bodies[i] = `{"model":"BERT","batch":1,"chips":2,"microbatches":4,"simulate":true}`
			sharded[i] = true
		default:
			bodies[i] = `{"model":"BERT","batch":1,"simulate":true}`
		}
	}

	type outcome struct {
		status int
		resp   compileResponse
	}
	outcomes := make([]outcome, parallel)
	var wg sync.WaitGroup
	for i := 0; i < parallel; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := postJSON(t, ts.URL+"/compile", bodies[i], &outcomes[i].resp)
			outcomes[i].status = r.StatusCode
		}()
	}
	wg.Wait()

	if peak := pool.Peak(); peak > budget {
		t.Fatalf("live worker peak %d exceeds the shared budget %d", peak, budget)
	}
	if inUse := pool.InUse(); inUse != 0 {
		t.Fatalf("%d budget slots leaked", inUse)
	}
	var singleMs float64
	for i, o := range outcomes {
		switch o.status {
		case http.StatusOK:
		case http.StatusTooManyRequests:
			continue // legitimate shed under the tight budget
		default:
			t.Fatalf("request %d (%s): status %d, want 200/429", i, bodies[i], o.status)
		}
		if !sharded[i] {
			if len(o.resp.Shards) != 0 || o.resp.Chips != 0 {
				t.Errorf("request %d: single-chip response carries shards: %+v", i, o.resp.Shards)
			}
			singleMs = o.resp.LatencyMs
			continue
		}
		if o.resp.Chips < 1 || o.resp.Chips > 2 {
			t.Errorf("request %d: chips = %d, want 1..2", i, o.resp.Chips)
		}
		if len(o.resp.Shards) == 0 {
			t.Fatalf("request %d: sharded 200 carries no shards block", i)
		}
		covered := 0
		for j, sh := range o.resp.Shards {
			if sh.Stage != j || sh.EndOp <= sh.StartOp || sh.Split < 1 {
				t.Errorf("request %d shard %d malformed: %+v", i, j, sh)
			}
			covered += sh.EndOp - sh.StartOp
			if sh.LatencyMs <= 0 {
				t.Errorf("request %d shard %d: no simulated latency", i, j)
			}
		}
		if covered != o.resp.Ops {
			t.Errorf("request %d: shards cover %d ops of %d", i, covered, o.resp.Ops)
		}
		if o.resp.LatencyMs <= 0 {
			t.Errorf("request %d: sharded simulate returned no latency", i)
		}
		checkTelemetry(t, fmt.Sprintf("sharded request %d", i), o.resp.Telemetry)
		// a sharded request carries its stage compiles' walls
		if tel := o.resp.Telemetry; tel.RouteCold > 0 && tel.ColdSearchUs == 0 {
			t.Errorf("request %d: cold sharded 200 reports cold_search_us = 0: %+v", i, tel)
		}
	}
	// selection is by simulation over a candidate set that includes the
	// whole-model single-chip partition, so a 2-chip answer can never be
	// slower than the single-chip one
	if singleMs > 0 {
		for i, o := range outcomes {
			if sharded[i] && o.status == http.StatusOK && o.resp.LatencyMs > singleMs*(1+1e-9) {
				t.Errorf("request %d: 2-chip latency %.3f ms worse than single-chip %.3f ms",
					i, o.resp.LatencyMs, singleMs)
			}
		}
	}

	st := fetchStats(t, ts.URL)
	compiles, stages, chips := st.n("sharded_compiles"), st.n("sharded_stages"), st.n("sharded_chips")
	if compiles < 1 || compiles != s.stats.ShardedCompiles.Load() {
		t.Errorf("sharded_compiles = %d (server counts %d), want >= 1", compiles, s.stats.ShardedCompiles.Load())
	}
	if stages < compiles || chips < compiles {
		t.Errorf("sharded stage/chip counters inconsistent: stages=%d chips=%d compiles=%d", stages, chips, compiles)
	}
	t.Logf("sharded soak: %d sharded compiles, %d stages, %d chips", compiles, stages, chips)
}

// TestShardedRequestValidation pins the request bounds: chips and
// microbatches outside their limits answer 400 before any compile.
func TestShardedRequestValidation(t *testing.T) {
	_, ts, _ := soakServer(t, 1, 4, 0)
	for _, body := range []string{
		fmt.Sprintf(`{"model":"BERT","chips":%d}`, maxChips+1),
		`{"model":"BERT","chips":65}`,
		`{"model":"BERT","chips":-1}`,
		fmt.Sprintf(`{"model":"BERT","chips":2,"microbatches":%d}`, maxMicrobatches+1),
	} {
		if resp := postJSON(t, ts.URL+"/compile", body, nil); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", body, resp.StatusCode)
		}
	}
}
