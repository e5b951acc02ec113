package chaostest

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

func TestChaosTransportDeterministicSchedule(t *testing.T) {
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"ok":true}`))
	}))
	t.Cleanup(backend.Close)

	run := func(seed int64) [5]int64 {
		tr := NewTransport(Options{
			Seed: seed, ResetProb: 0.2, Code5xxProb: 0.2, LatencyProb: 0.2,
			Latency: time.Microsecond, CorruptProb: 0.2,
		})
		client := &http.Client{Transport: tr}
		for i := 0; i < 200; i++ {
			resp, err := client.Get(backend.URL)
			if err == nil {
				resp.Body.Close()
			}
		}
		return [5]int64{tr.Resets.Load(), tr.Code5xx.Load(), tr.Latencies.Load(), tr.Corruptions.Load(), tr.Passed.Load()}
	}

	a, b := run(99), run(99)
	if a != b {
		t.Fatalf("same seed, different schedules: %v vs %v", a, b)
	}
	if c := run(100); c == a {
		t.Fatalf("different seeds, identical schedule %v — rng not wired to the seed", a)
	}
	// with 0.8 total fault probability over 200 requests, every band
	// fired; the harness is only a harness if it actually injects
	for i, n := range a[:4] {
		if n == 0 {
			t.Fatalf("fault band %d never fired in 200 requests: %v", i, a)
		}
	}
}
