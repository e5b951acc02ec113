package search

import (
	"math/big"
	"math/rand"

	"repro/internal/expr"
	"repro/internal/mathutil"
)

// CompleteSpace estimates the unconstrained plan-space size of an
// operator (the "Complete Space" bar of Fig 18): every operator
// partition factor Fop ∈ ∏[1..L_a] combined with every temporal
// factorization of every shared tensor.
//
// The count is Σ over all Fop of ∏_X ftCount(ShareP_X), which cannot be
// enumerated (it reaches ~10^19 for 7-axis convolutions). We compute
//
//	∏_a L_a  ×  E[∏_X ftCount(ShareP_X)]
//
// with the expectation estimated over a deterministic sample of Fop
// vectors — an unbiased estimator of the exact sum. It reads the
// expression alone (no device, no constraints) and nothing a compile
// selects depends on it, so no search computes it: Fig 18 calls it.
func CompleteSpace(e *expr.Expr) *big.Int {
	nAxes := len(e.Axes)
	fopSpace := big.NewInt(1)
	for _, ax := range e.Axes {
		fopSpace.Mul(fopSpace, big.NewInt(int64(ax.Size)))
	}

	const samples = 2000
	rng := rand.New(rand.NewSource(12345))
	fop := make([]int, nAxes)
	tensors := e.Tensors()
	// eligible (single-axis stride-1) dim counts are fixed per tensor
	nds := make([]int, len(tensors))
	for ti, tr := range tensors {
		for _, dim := range tr.Dims {
			if !dim.Compound() && dim.Terms[0].Stride == 1 {
				nds[ti]++
			}
		}
	}
	// sampled sharing degrees repeat constantly; memoize the counts
	memo := make(map[[2]int]float64)
	var mean float64
	for i := 0; i < samples; i++ {
		for a, ax := range e.Axes {
			fop[a] = 1 + rng.Intn(ax.Size)
		}
		prod := 1.0
		for ti, tr := range tensors {
			if ti == len(tensors)-1 {
				continue
			}
			key := [2]int{tensorShare(e, tr, fop), nds[ti]}
			c, ok := memo[key]
			if !ok {
				c = float64(ftCount(key[0], key[1]))
				memo[key] = c
			}
			prod *= c
		}
		mean += prod / samples
	}
	if mean < 1 {
		mean = 1
	}
	scaled := new(big.Float).SetInt(fopSpace)
	scaled.Mul(scaled, big.NewFloat(mean))
	out, _ := scaled.Int(nil)
	return out
}

// ftCount returns the number of temporal factor vectors over nd dims
// whose product divides share: Σ_{d | share} H(d, nd), where H(d, nd) is
// the number of ordered nd-tuples with product exactly d (multiplicative
// over prime powers: H(p^e, nd) = C(e+nd-1, nd-1)).
func ftCount(share, nd int) int64 {
	if nd == 0 || share <= 1 {
		return 1
	}
	var total int64
	for _, d := range mathutil.DivisorsCached(share) {
		total += orderedFactorizations(d, nd)
	}
	return total
}

func orderedFactorizations(n, k int) int64 {
	if n == 1 {
		return 1
	}
	res := int64(1)
	for p := 2; p*p <= n; p++ {
		if n%p != 0 {
			continue
		}
		e := 0
		for n%p == 0 {
			n /= p
			e++
		}
		res *= binomial(e+k-1, k-1)
	}
	if n > 1 {
		res *= binomial(1+k-1, k-1)
	}
	return res
}

func binomial(n, k int) int64 {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	r := int64(1)
	for i := 0; i < k; i++ {
		r = r * int64(n-i) / int64(i+1)
	}
	return r
}
