package search

import (
	"slices"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/expr"
	"repro/internal/mathutil"
	"repro/internal/plancache"
)

// ftOrder sorts temporal-factor vectors by ∏ft with a lexicographic
// tie-break: the total order ftChoices subsamples in. It was the
// subsample's sort before the counting sort replaced it, and is kept as
// its oracle.
type ftOrder struct {
	vecs  [][]int
	prods []int
}

func (o *ftOrder) Len() int { return len(o.vecs) }
func (o *ftOrder) Swap(i, j int) {
	o.vecs[i], o.vecs[j] = o.vecs[j], o.vecs[i]
	o.prods[i], o.prods[j] = o.prods[j], o.prods[i]
}
func (o *ftOrder) Less(i, j int) bool {
	if o.prods[i] != o.prods[j] {
		return o.prods[i] < o.prods[j]
	}
	for d := range o.vecs[i] {
		if o.vecs[i][d] != o.vecs[j][d] {
			return o.vecs[i][d] < o.vecs[j][d]
		}
	}
	return false
}

// refFtEnumerate is ftChoices' enumeration as it stood before the flat
// rows: one allocation per vector, depth-first over ascending divisors,
// stopped at the hard cap.
func refFtEnumerate(eligible []bool, share int) (out [][]int, capped bool) {
	const hardCap = 4096
	ft := make([]int, len(eligible))
	for i := range ft {
		ft[i] = 1
	}
	var rec func(d, rem int)
	rec = func(d, rem int) {
		if len(out) >= hardCap {
			capped = true
			return
		}
		if d == len(eligible) {
			out = append(out, append([]int(nil), ft...))
			return
		}
		if !eligible[d] {
			rec(d+1, rem)
			return
		}
		for _, v := range mathutil.DivisorsCached(rem) {
			ft[d] = v
			rec(d+1, rem/v)
		}
		ft[d] = 1
	}
	rec(0, share)
	return out, capped
}

// TestFtChoicesMatchSortedSubsample holds ftChoices to the enumeration
// and ftOrder sort it replaced: over sharing degrees from 2 to 147 456,
// 1–5 dims under every eligibility mask (an ineligible dim is strided or
// compound) and caps from unlimited to past the set size, the vectors,
// their order and the truncation flag must match — the hard-cap
// truncated enumerations included.
func TestFtChoicesMatchSortedSubsample(t *testing.T) {
	shares := []int{2, 12, 64, 360, 1472, 5040, 147456}
	caps := []int{0, 1, 2, 8, 64, 100}
	cases, hardCapped, subsampled := 0, 0, 0
	for _, share := range shares {
		for nd := 1; nd <= 5; nd++ {
			for mask := 0; mask < 1<<nd; mask++ {
				tr := expr.TensorRef{Name: "t", Dims: make([]expr.Dim, nd)}
				eligible := make([]bool, nd)
				for d := range tr.Dims {
					switch {
					case mask>>d&1 == 1:
						tr.Dims[d], eligible[d] = expr.D(d), true
					case d%2 == 0:
						tr.Dims[d] = expr.DS(d, 2)
					default:
						tr.Dims[d] = expr.Dim{Terms: []expr.DimTerm{{Axis: d, Stride: 1}, {Axis: nd, Stride: 1}}}
					}
				}
				all, capped := refFtEnumerate(eligible, share)
				if capped {
					hardCapped++
				}
				sorted := slices.Clone(all)
				prods := make([]int, len(sorted))
				for i, v := range sorted {
					prods[i] = mathutil.Prod(v...)
				}
				sort.Sort(&ftOrder{vecs: sorted, prods: prods})
				for _, m := range caps {
					want, wantTrunc := all, capped
					if m > 0 && len(all) > m {
						want, wantTrunc = make([][]int, m), true
						for i := range want {
							r := 0
							if m > 1 {
								r = i * (len(sorted) - 1) / (m - 1)
							}
							want[i] = sorted[r]
						}
						subsampled++
					}
					s := &Searcher{Cons: Constraints{MaxFtCombos: m}}
					got, gotTrunc := s.ftChoices(tr, share)
					if gotTrunc != wantTrunc || !slices.EqualFunc(got, want, slices.Equal) {
						t.Fatalf("share %d, mask %0*b, cap %d: got %d combos (truncated %t), want %d (truncated %t)\ngot  %v\nwant %v",
							share, nd, mask, m, len(got), gotTrunc, len(want), wantTrunc, got, want)
					}
					cases++
				}
			}
		}
	}
	if hardCapped == 0 || subsampled == 0 {
		t.Fatalf("%d hard-capped enumerations, %d subsamples: the caps are untested", hardCapped, subsampled)
	}
	t.Logf("%d cases: %d hard-capped enumerations, %d subsamples", cases, hardCapped, subsampled)
}

// TestLiveSetsMatchPerComboScan holds the per-Fop live lists the
// bitsets build (fillLive) to the per-combo padding scan they replaced,
// with the padding rule as the float expression of the leaf filter:
// every Fop and input tensor of every distinct M5 operator at batch 1
// and 8, under PaddingMin 0, 0.9 and 1.
func TestLiveSetsMatchPerComboScan(t *testing.T) {
	lists, dropped := 0, 0
	for _, padMin := range []float64{0, 0.9, 1} {
		cons := DefaultConstraints()
		cons.PaddingMin = padMin
		s := New(device.IPUMK2(), testCM(), cons, core.DefaultConfig())
		for _, batch := range []int{1, 8} {
			seen := make(map[plancache.Key]bool)
			for _, m := range m5(t, batch) {
				for _, op := range m.Ops {
					e := op.Expr
					if k := s.Key(e); seen[k] {
						continue
					} else {
						seen[k] = true
					}
					tensors := e.Tensors()
					w := newSearchWorker(s, e, s.CM.Resolve(e.Name, e.Kind), nil)
					for _, fop := range s.enumerateFops(e) {
						if !w.sketch.Begin(fop) {
							continue
						}
						for ti, tr := range tensors[:len(tensors)-1] {
							w.sets[ti] = s.ftSet(tr, w.sketch.ShareP(ti))
							w.fillLive(ti)
							var want []int
							for ci, ft := range w.sets[ti].combos {
								ok := true
								for d, f := range ft {
									if f > 1 {
										size := e.Axes[tr.Dims[d].Terms[0].Axis].Size
										fa := fop[tr.Dims[d].Terms[0].Axis]
										padded := mathutil.RoundUp(mathutil.CeilDiv(size, fa), f) * fa
										ok = ok && !(float64(size)/float64(padded) < padMin)
									}
								}
								if ok {
									want = append(want, ci)
								}
							}
							if !slices.Equal(w.live[ti], want) {
								t.Fatalf("min %g batch %d %s/%s fop %v tensor %d: live %v, per-combo scan %v",
									padMin, batch, m.Name, e.Name, fop, ti, w.live[ti], want)
							}
							lists++
							dropped += len(w.sets[ti].combos) - len(want)
						}
					}
				}
			}
		}
	}
	if dropped == 0 {
		t.Fatal("no combo over-pads: the bitsets' clearing is untested")
	}
	t.Logf("%d live lists checked, %d combos dropped", lists, dropped)
}

// refWalkFops is walkFops as it stood before the reachable-product
// sets: a first pass over every product ≤ Cores along the candidate
// tree for the maximum, then the walk pruned by the product of each
// remaining axis' largest candidate.
func refWalkFops(s *Searcher, e *expr.Expr, fn func(fop []int)) {
	cands := make([][]int, len(e.Axes))
	for a, ax := range e.Axes {
		if ax.Kind == expr.Gather {
			cands[a] = []int{1}
			continue
		}
		cands[a] = s.axisCandidates(ax.Size)
	}
	maxProd := 1
	var walk func(a, prod int)
	walk = func(a, prod int) {
		maxProd = max(maxProd, prod)
		if a == len(cands) {
			return
		}
		for _, v := range cands[a] {
			if prod*v <= s.Spec.Cores {
				walk(a+1, prod*v)
			}
		}
	}
	walk(0, 1)
	minProd := int(s.Cons.ParallelismMin * float64(maxProd))
	fop := make([]int, len(cands))
	var gen func(a, prod int)
	gen = func(a, prod int) {
		if a == len(cands) {
			if prod >= minProd {
				fn(fop)
			}
			return
		}
		rest := 1
		for b := a; b < len(cands); b++ {
			rest *= cands[b][len(cands[b])-1]
			if prod*rest >= minProd {
				break
			}
		}
		if prod*rest < minProd {
			return
		}
		for _, v := range cands[a] {
			if prod*v <= s.Spec.Cores {
				fop[a] = v
				gen(a+1, prod*v)
			}
		}
	}
	gen(0, 1)
}

// TestWalkFopsMatchesTreeWalk holds the Fop walk to the two-pass tree
// walk it replaced: the same Fops in the same order for every distinct
// M5 operator at batch 1 and 8, on the full chip and on two subsets,
// under parallelism floors from none to exact.
func TestWalkFopsMatchesTreeWalk(t *testing.T) {
	fops := 0
	for _, spec := range []*device.Spec{device.IPUMK2(), device.IPUMK2().Subset(64), device.IPUMK2().Subset(96)} {
		for _, parMin := range []float64{0, 0.5, 0.9, 1} {
			cons := DefaultConstraints()
			cons.ParallelismMin = parMin
			s := New(spec, testCM(), cons, core.DefaultConfig())
			for _, batch := range []int{1, 8} {
				seen := make(map[string]bool)
				for _, m := range m5(t, batch) {
					for _, op := range m.Ops {
						e := op.Expr
						if seen[e.Signature()] {
							continue
						}
						seen[e.Signature()] = true
						var want [][]int
						refWalkFops(s, e, func(fop []int) { want = append(want, slices.Clone(fop)) })
						got := s.enumerateFops(e)
						if !slices.EqualFunc(got, want, slices.Equal) {
							t.Fatalf("%d cores, min %g, %s/%s: %d Fops, tree walk %d", spec.Cores, parMin, m.Name, e.Name, len(got), len(want))
						}
						if n := s.FopCount(e); n != len(want) {
							t.Fatalf("%d cores, min %g, %s/%s: FopCount %d, tree walk %d", spec.Cores, parMin, m.Name, e.Name, n, len(want))
						}
						fops += len(want)
					}
				}
			}
		}
	}
	t.Logf("%d Fops matched", fops)
}
