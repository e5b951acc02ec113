package main

import (
	"bytes"
	"math"
	"testing"
)

// allClasses is every workload's request mix.
func allClasses() map[string][]class {
	e := &env{}
	out := map[string][]class{}
	for _, n := range workloadNames {
		w, err := newWorkload(e, n)
		if err != nil {
			panic(err)
		}
		out[n] = w.classes()
	}
	return out
}

func TestScheduleIsAFunctionOfTheSeed(t *testing.T) {
	for name, cs := range allClasses() {
		a, b := genSchedule(7, cs, 50), genSchedule(7, cs, 50)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: two schedules from one seed differ", name)
		}
		if bytes.Equal(a, genSchedule(8, cs, 50)) {
			t.Errorf("%s: seeds 7 and 8 gave the same schedule", name)
		}
		// every block holds each class exactly weight times
		bl := blockLen(cs)
		if len(a) != 50*bl {
			t.Fatalf("%s: %d requests, want %d", name, len(a), 50*bl)
		}
		for blk := 0; blk < 50; blk++ {
			count := make([]int, len(cs))
			for _, c := range a[blk*bl : (blk+1)*bl] {
				count[c]++
			}
			for ci, c := range cs {
				if count[ci] != c.weight {
					t.Fatalf("%s block %d: class %s appears %d times, want %d", name, blk, c.name, count[ci], c.weight)
				}
			}
		}
	}
}

// t10serve refuses operator dimensions beyond this (maxOpDim in
// cmd/t10serve).
const serveMaxOpDim = 1 << 20

func TestColdShapes(t *testing.T) {
	a, err := genColdShapes(3, 5000)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := genColdShapes(3, 5000)
	c, _ := genColdShapes(4, 5000)
	seen := map[[3]int]bool{}
	same := true
	for i, s := range a {
		if s != b[i] {
			t.Fatalf("shape %d differs between two draws from one seed: %v vs %v", i, s, b[i])
		}
		same = same && s == c[i]
		if seen[s] {
			t.Fatalf("shape %v drawn twice: the second request would be a cache hit", s)
		}
		seen[s] = true
		for _, d := range s {
			if d < coldDimMin || d > coldDimMax || d > serveMaxOpDim || d%coldDimUnit != 0 || !isPrime(d/coldDimUnit) {
				t.Fatalf("shape %v leaves [%d, %d] or is not %d times a prime", s, coldDimMin, coldDimMax, coldDimUnit)
			}
			// the pre-warmed shapes are multiples of 64 in every dimension;
			// a cold shape equal to one would be answered from memory
			if d%64 == 0 {
				t.Fatalf("shape %v shares dimension %d with the pre-warmed grid", s, d)
			}
		}
	}
	if same {
		t.Error("seeds 3 and 4 drew the same shapes")
	}
	for _, d := range probeOpShape {
		if d%64 != 0 {
			t.Errorf("probe dimension %d is on the cold grid's side of the 64 lattice", d)
		}
	}
	if _, err := genColdShapes(1, 1<<30); err == nil {
		t.Error("asking for more distinct shapes than exist did not fail")
	}
}

// shareBoundaries returns the cumulative class shares strictly between
// 0 and 1: the quantiles at which the sorted latency sample crosses
// from one class into the next (when classes are ordered by latency —
// any order gives the same set of sums for the mixes used here, because
// a percentile must avoid every boundary of every ordering).
func shareBoundaries(classes []class) []float64 {
	total := float64(blockLen(classes))
	// every subset sum is a possible boundary under some latency order
	sums := map[int]bool{0: true}
	for _, c := range classes {
		next := make(map[int]bool, 2*len(sums))
		for s := range sums {
			next[s] = true
			next[s+c.weight] = true
		}
		sums = next
	}
	var out []float64
	for s := range sums {
		if f := float64(s) / total; f > 0 && f < 1 {
			out = append(out, f)
		}
	}
	return out
}

// p50 and p90 must fall inside one request class, whatever the order of
// the classes by latency: a percentile on the boundary between a fast
// and a slow class jumps between them from run to run.
func TestPercentilesAvoidClassBoundaries(t *testing.T) {
	const margin = 0.04
	for name, cs := range allClasses() {
		for _, b := range shareBoundaries(cs) {
			for _, q := range []float64{0.50, tailQuantile} {
				if math.Abs(b-q) < margin {
					t.Errorf("%s: cumulative class share %.3f is within %.2f of the %.2f quantile", name, b, margin, q)
				}
			}
		}
	}
	// the mix the sizing runs rejected: two equal classes
	bad := shareBoundaries([]class{{"fast", 1}, {"slow", 1}})
	if len(bad) != 1 || bad[0] != 0.5 {
		t.Errorf("boundaries of a 50/50 mix = %v, want [0.5]", bad)
	}
}
