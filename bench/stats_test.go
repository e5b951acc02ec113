package main

import (
	"math"
	"testing"
)

func TestQuantile(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.125, 1.5}, {0.95, 4.8},
	} {
		if got := quantile(s, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v, %v) = %v, want %v", s, c.q, got, c.want)
		}
	}
	if got := quantile([]float64{7}, 0.95); got != 7 {
		t.Errorf("one sample: p95 = %v, want 7", got)
	}
	if got := quantile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("empty sample: median = %v, want NaN", got)
	}
}

// A percentile is reported only with at least ten samples beyond it.
func TestSupported(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{
		{99, 0.90, false}, {100, 0.90, true},
		{199, 0.95, false}, {200, 0.95, true},
		{999, 0.99, false}, {1000, 0.99, true},
		{20, 0.5, true}, {19, 0.5, false},
	} {
		if got := supported(c.n, c.q); got != c.want {
			t.Errorf("supported(%d, %v) = %v (%d beyond), want %v", c.n, c.q, got, samplesBeyond(c.n, c.q), c.want)
		}
	}
}

func TestMedianLeavesInputAlone(t *testing.T) {
	xs := []float64{3, 1, 2}
	if got := median(xs); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("median reordered its input: %v", xs)
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{1, 100}); math.Abs(got-10) > 1e-9 {
		t.Errorf("geomean(1, 100) = %v, want 10", got)
	}
	if got := geomean([]float64{0, 4, 9}); math.Abs(got-6) > 1e-9 {
		t.Errorf("geomean skipping 0 = %v, want 6", got)
	}
	if got := geomean(nil); got != 0 {
		t.Errorf("geomean of nothing = %v, want 0", got)
	}
}

// The slowdown is the median calibration sample over the reference, so
// one sample that met a collection does not move it, and a run without
// samples is reported as measured.
func TestSlowdown(t *testing.T) {
	if got := slowdown(nil); got != 1 {
		t.Errorf("no samples: slowdown = %v, want 1", got)
	}
	got := slowdown([]float64{2 * calRefMs, 2 * calRefMs, 40 * calRefMs})
	if math.Abs(got-2) > 1e-12 {
		t.Errorf("slowdown = %v, want 2", got)
	}
	if ms := calibrate(); ms <= 0 {
		t.Errorf("calibrate took %v ms", ms)
	}
}
