package main

import (
	"fmt"
	"math/rand"
)

// class is one kind of request in a workload's mix. weight is how many
// of a block's requests belong to it.
type class struct {
	name   string
	weight int
}

// blockLen is the number of requests in one block of the mix: every
// block holds each class exactly weight times, so a run that stops at a
// block end has the stated class shares exactly.
func blockLen(classes []class) int {
	n := 0
	for _, c := range classes {
		n += c.weight
	}
	return n
}

// genSchedule is a pure function of the seed: blocks blocks, each the
// block's class multiset in a seeded order. Entry i is the class of
// request i.
func genSchedule(seed int64, classes []class, blocks int) []uint8 {
	rng := rand.New(rand.NewSource(seed))
	bl := blockLen(classes)
	out := make([]uint8, 0, bl*blocks)
	for b := 0; b < blocks; b++ {
		start := len(out)
		for ci, c := range classes {
			for k := 0; k < c.weight; k++ {
				out = append(out, uint8(ci))
			}
		}
		blk := out[start:]
		rng.Shuffle(len(blk), func(i, j int) { blk[i], blk[j] = blk[j], blk[i] })
	}
	return out
}

// Cold single-operator requests of serve_mix: every matmul dimension is
// coldDimUnit times a prime, inside [coldDimMin, coldDimMax] and far
// inside t10serve's per-dimension cap, and no (m, k, n) repeats within a
// schedule, so every such request is a cold search. All dimensions
// factor alike, so the searches cost alike (p10 to p90 is 4.7 to 9.4 ms;
// over all multiples of 32 it was 5 to 25 ms, and a window's rate then
// said more about the shapes it drew than about the host). The plan
// cache is keyed by shape, not by name: the pre-warmed probes (the probe
// operator and the probe model's matmuls) have dimensions that are
// multiples of 64, which this grid never produces.
const (
	coldDimUnit = 16
	coldDimMin  = 544
	coldDimMax  = 4064
)

// coldDims lists the grid: coldDimUnit × p for every prime p that keeps
// the product inside the bounds.
func coldDims() []int {
	var out []int
	for p := coldDimMin/coldDimUnit + 1; coldDimUnit*p <= coldDimMax; p++ {
		if isPrime(p) {
			out = append(out, coldDimUnit*p)
		}
	}
	return out
}

func isPrime(p int) bool {
	for d := 2; d*d <= p; d++ {
		if p%d == 0 {
			return false
		}
	}
	return p > 1
}

// genColdShapes is a pure function of the seed: n distinct (m, k, n)
// matmul shapes.
func genColdShapes(seed int64, n int) ([][3]int, error) {
	dims := coldDims()
	if all := len(dims) * len(dims) * len(dims); n > all/2 {
		return nil, fmt.Errorf("cannot draw %d distinct shapes from %d", n, all)
	}
	// a different stream from genSchedule's, so the shapes do not depend
	// on how many shuffles the schedule consumed
	rng := rand.New(rand.NewSource(seed ^ 0x5eed_c01d))
	seen := make(map[[3]int]bool, n)
	out := make([][3]int, 0, n)
	for len(out) < n {
		var s [3]int
		for d := range s {
			s[d] = dims[rng.Intn(len(dims))]
		}
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out, nil
}
