package main

import (
	"sync"
	"testing"
	"time"
)

// TestRetryAfterTracksQueueWaitP95 pins the Retry-After derivation:
// the hint is the observed admission-wait p95 rounded up to whole
// seconds, clamped to [floor, ceiling], with the floor as the cold
// default.
func TestRetryAfterTracksQueueWaitP95(t *testing.T) {
	cases := []struct {
		name  string
		waits []time.Duration
		want  int
	}{
		{"no samples yet", nil, retryAfterFloorSec},
		{"sub-second waits floor at 1s", manyWaits(100*time.Millisecond, 50), 1},
		{"p95 rounds up, not down", manyWaits(2500*time.Millisecond, 50), 3},
		{"exact seconds stay exact", manyWaits(4*time.Second, 50), 4},
		{"pathological waits clamp at the ceiling", manyWaits(10*time.Minute, 50), retryAfterCeilingSec},
		{
			// 90 fast, 10 slow: the 95th percentile lands in the slow tail,
			// so the hint reflects the congested path, not the median
			"tail-dominated p95",
			append(manyWaits(10*time.Millisecond, 90), manyWaits(6*time.Second, 10)...),
			6,
		},
		{
			// 96 slow, 4 fast: a mostly-congested queue keeps a high hint
			"fast outliers don't hide congestion",
			append(manyWaits(5*time.Second, 96), manyWaits(time.Millisecond, 4)...),
			5,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := &server{}
			for _, d := range tc.waits {
				s.lat.AdmissionWait.add(d)
			}
			if got := s.retryAfterSeconds(); got != tc.want {
				t.Fatalf("retryAfterSeconds() = %d, want %d", got, tc.want)
			}
		})
	}
}

func manyWaits(d time.Duration, n int) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = d
	}
	return out
}

// TestLatRingConcurrentReadsAndWrites hammers one ring from writer and
// reader goroutines — the /stats-under-load shape — so the race
// detector can vet the snapshot path (which must copy under the lock
// but allocate and sort outside it).
func TestLatRingConcurrentReadsAndWrites(t *testing.T) {
	var r latRing
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				r.add(time.Duration(i+w) * time.Microsecond)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for reading := true; reading; {
		select {
		case <-done:
			reading = false
		default:
		}
		p := r.percentiles()
		if p.Samples > latRingSize {
			t.Fatalf("snapshot grew past the ring: %d samples", p.Samples)
		}
		if p.Samples > 0 && (p.P50Us > p.P95Us || p.P95Us > p.P99Us) {
			t.Fatalf("percentiles unordered: %+v", p)
		}
	}
	if p := r.percentiles(); p.Samples != latRingSize {
		t.Fatalf("ring not full after the hammer: %d samples", p.Samples)
	}
}
