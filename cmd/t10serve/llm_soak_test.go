package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/device"
	"repro/internal/graph"
	"repro/internal/sema"
	"repro/t10"
)

// fusionServer is soakServer with the operator-fusion pass on (the
// -fusion flag's compiler construction).
func fusionServer(t *testing.T, budget, queueLen int) (*server, *httptest.Server, *sema.Sem) {
	t.Helper()
	pool := sema.NewShared(budget, queueLen)
	opts := t10.DefaultOptions()
	opts.Workers = budget
	opts.SharedPool = pool
	c, err := t10.New(device.IPUMK2(), opts, t10.WithFusion(graph.DefaultRules()))
	if err != nil {
		t.Fatal(err)
	}
	s := newServer(c, pool, 0)
	ts := httptest.NewServer(s.mux())
	t.Cleanup(ts.Close)
	return s, ts, pool
}

// TestServeLLMPrefillDecodeMix is the LLM-inference serving scenario
// end-to-end, fusion on: heavy prompt-prefill compiles saturate a tiny
// worker budget while a stream of decode-step probes — the per-token
// hot path, already compiled once — keeps arriving. Cost-weighted
// admission must price every decode probe at weight 0 (its fused
// shapes are all cached), so prefill pressure can shed with 429 but
// can never starve decode traffic; and the fusion counters must flow
// through per-request telemetry into the cumulative /stats surface.
func TestServeLLMPrefillDecodeMix(t *testing.T) {
	const (
		budget   = 2
		queueLen = 1
		prefills = 2
		probes   = 12
	)
	s, ts, pool := fusionServer(t, budget, queueLen)

	// prime the decode step: one token per sequence through the layer —
	// GEMV projections, KV-cache append, attention over the cached
	// context. Under fusion the 9-op source graph compiles as 7 ops:
	// the softmax and gelu epilogues fold into their matmuls, while the
	// profitability gate rejects both contraction chains — at batch-1
	// GEMV shapes the chained kernel would recompute its intermediate
	// per output tile.
	const decode = `{"model":"OPT-1.3B-decode","batch":1}`
	var prime compileResponse
	if resp := postJSON(t, ts.URL+"/compile", decode, &prime); resp.StatusCode != http.StatusOK {
		t.Fatalf("priming decode compile: %s", resp.Status)
	}
	if prime.Ops != 7 {
		t.Errorf("fused decode step compiled %d ops, want 7", prime.Ops)
	}
	if prime.Telemetry == nil || prime.Telemetry.FusedGroups != 2 || prime.Telemetry.FusedOps != 4 {
		t.Errorf("decode telemetry fusion = %+v, want 2 groups / 4 ops", prime.Telemetry)
	}

	var wg sync.WaitGroup
	prefillStatus := make([]int, prefills)
	for i := 0; i < prefills; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			// distinct batches → distinct shapes → every prefill is a
			// cold, heavy compile (512 prompt tokens per sequence)
			body := fmt.Sprintf(`{"model":"OPT-1.3B-prefill","batch":%d}`, i+1)
			resp := postJSON(t, ts.URL+"/compile", body, nil)
			prefillStatus[i] = resp.StatusCode
		}()
	}
	probeStatus := make([]int, probes)
	probeTel := make([]*telemetryJSON, probes)
	for i := 0; i < probes; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			var out compileResponse
			resp := postJSON(t, ts.URL+"/compile", decode, &out)
			probeStatus[i] = resp.StatusCode
			probeTel[i] = out.Telemetry
		}()
	}
	wg.Wait()

	// the serving asymmetry holds under pressure: decode probes are all
	// 200 (weight 0 bypasses the saturated budget), prefill compiles
	// either complete or shed cleanly
	for i, st := range probeStatus {
		if st != http.StatusOK {
			t.Errorf("decode probe %d: status %d, want 200 even under prefill load", i, st)
			continue
		}
		checkTelemetry(t, fmt.Sprintf("decode probe %d", i), probeTel[i])
		if probeTel[i].FusedGroups != 2 {
			t.Errorf("decode probe %d: fused_groups = %d, want 2", i, probeTel[i].FusedGroups)
		}
	}
	for i, st := range prefillStatus {
		if st != http.StatusOK && st != http.StatusTooManyRequests {
			t.Errorf("prefill %d: status %d, want 200 or 429", i, st)
		}
	}
	if got := s.stats.ProbeRequests.Load(); got < probes {
		t.Errorf("probe_requests = %d, want >= %d (cached decode steps must weigh 0)", got, probes)
	}
	if got := s.stats.HeavyRequests.Load(); got < 1 {
		t.Errorf("heavy_requests = %d, want >= 1 (cold prefill must weigh > 1 slot)", got)
	}
	if peak := pool.Peak(); peak > budget {
		t.Fatalf("live worker peak %d exceeds the shared budget %d", peak, budget)
	}
	if inUse := pool.InUse(); inUse != 0 {
		t.Fatalf("%d budget slots leaked", inUse)
	}

	// the fused-group counters surface cumulatively in /stats: at least
	// the priming compile and every successful probe contributed 2
	// groups / 4 folded ops each
	st := fetchStats(t, ts.URL)
	okProbes := int64(0)
	for _, code := range probeStatus {
		if code == http.StatusOK {
			okProbes++
		}
	}
	if st.n("fused_groups") < 2*(1+okProbes) || st.n("fused_ops") < 4*(1+okProbes) {
		t.Errorf("/stats fusion counters = %d groups / %d ops, want >= %d/%d",
			st.n("fused_groups"), st.n("fused_ops"), 2*(1+okProbes), 4*(1+okProbes))
	}
	if st.n("probe_requests") < probes {
		t.Errorf("/stats probe_requests = %d, want >= %d", st.n("probe_requests"), probes)
	}
}
