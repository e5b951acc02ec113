package search

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/device"
	"repro/internal/dtype"
	"repro/internal/expr"
	"repro/internal/kernel"
)

// maxFuzzLeaves caps the brute-force product of one fuzz input (every
// Fop's temporal-factor combinations), so Reference runs in
// milliseconds; larger draws are skipped.
const maxFuzzLeaves = 3000

// equivSrc decodes a fuzz input; past its end every draw reads 0.
type equivSrc struct{ data []byte }

func (s *equivSrc) next() int {
	if len(s.data) == 0 {
		return 0
	}
	b := s.data[0]
	s.data = s.data[1:]
	return int(b)
}

// ext draws an axis extent from small primes and powers of two.
func (s *equivSrc) ext() int {
	exts := []int{1, 2, 3, 4, 5, 7, 8, 11, 13, 16, 17, 31, 32, 64, 97, 128}
	return exts[s.next()%len(exts)]
}

// pick draws one of vals.
func pick[T any](s *equivSrc, vals ...T) T { return vals[s.next()%len(vals)] }

// equivExpr draws the expression: a matmul, batch matmul, strided conv,
// pool, elementwise map, ComposeContraction chain, or a gated conv — a
// conv with up to three more inputs over any of its axes, so several
// tensors may rotate one window axis beside the input and weight (the
// shape core.PlanSketch's windowCap guards).
func equivExpr(s *equivSrc) (*expr.Expr, error) {
	const elem = dtype.FP16
	switch s.next() % 7 {
	case 0:
		return expr.MatMul("mm", s.ext(), s.ext(), s.ext(), elem), nil
	case 1:
		return expr.BatchMatMul("bmm", s.ext(), s.ext(), s.ext(), s.ext(), elem), nil
	case 2:
		k := 1 + s.next()%5
		return expr.Conv2D("conv", s.ext(), s.ext(), s.ext(), s.ext(), s.ext(), k, k, 1+s.next()%3, elem), nil
	case 3:
		k := 1 + s.next()%4
		return expr.Pool2D("pool", s.ext(), s.ext(), s.ext(), s.ext(), k, k, 1+s.next()%3, elem), nil
	case 4:
		return expr.Elementwise("act", s.ext(), s.ext(), 1+s.next()%8, elem), nil
	case 5:
		m, d, n := s.ext(), s.ext(), s.ext()
		return expr.ComposeContraction(expr.MatMul("qk", m, d, n, elem), expr.MatMul("av", m, n, s.ext(), elem), 0)
	default:
		k := 1 + s.next()%7
		e := expr.Conv2D("gated", s.ext(), s.ext(), s.ext(), s.ext(), s.ext(), k, k, 1+s.next()%2, elem)
		for g := s.next() % 4; g > 0; g-- {
			var dims []expr.Dim
			for mask, a := s.next()|s.next()<<8, 0; a < len(e.Axes); a++ {
				if mask>>a&1 == 1 {
					dims = append(dims, expr.D(a))
				}
			}
			if len(dims) == 0 {
				dims = []expr.Dim{expr.D(5)}
			}
			e.Inputs = append(e.Inputs, expr.TensorRef{Name: fmt.Sprintf("G%d", g), Dims: dims, Elem: elem})
		}
		return e, e.Validate()
	}
}

// equivCM draws the cost model: a generation's shipped fit, that fit
// recalibrated by Set.Calibrate over noisy samples of the drawn kind, or
// an opaque custom function registered for the operator.
func equivCM(s *equivSrc, spec *device.Spec, e *expr.Expr) (*costmodel.Set, string) {
	set := costmodel.MustNewSet(spec)
	switch s.next() % 3 {
	case 1:
		ring := costmodel.NewSampleRing(64)
		lo := pick(s, 0.3, 0.7, 1.0)
		for i, sm := range costmodel.ProfileSamples(spec, e.Kind, 4+s.next()%40, int64(s.next())) {
			ring.Record(sm.Task, sm.Ns*(lo+(1.7-lo)*float64((i*37+s.next())%64)/64))
		}
		if _, err := set.Calibrate(ring, 0); err != nil {
			panic(err)
		}
		return set, "calibrated"
	case 2:
		scale, skew := 0.5+float64(s.next())/256, s.next()%5
		set.RegisterCustom(e.Name, func(t kernel.Task) float64 {
			return scale*kernel.Nanoseconds(spec, t) + float64((t.M*31+t.N*17+t.K+int(t.InBytes))%7*skew)
		})
		return set, "custom"
	}
	return set, "shipped"
}

// leafProduct is the number of leaves Reference builds for e.
func leafProduct(s *Searcher, e *expr.Expr) int {
	tensors := e.Tensors()
	total := 0
	for _, fop := range s.enumerateFops(e) {
		n := 1
		for _, tr := range tensors[:len(tensors)-1] {
			choices, _ := s.ftChoices(tr, tensorShare(e, tr, fop))
			if n *= len(choices); n > maxFuzzLeaves {
				return n
			}
		}
		if total += n; total > maxFuzzLeaves {
			return total
		}
	}
	return total
}

// FuzzSearchEquivalence is TestSearchEquivalence on drawn inputs: an
// expression, a core subset of 8–64 of a drawn generation, the
// constraints (PaddingMin 0 and 1 among them), a cost model (shipped,
// calibrated or custom) and 1 or 4 workers. The pruned engine must
// return Reference's Pareto set with bit-identical estimates, the same
// Optimized count and Filtered as checkEngine accounts for it (exact
// but for the leaves cut unexamined).
func FuzzSearchEquivalence(f *testing.F) {
	for _, seed := range [][]byte{
		{0, 6, 7, 5, 1, 16, 0, 0, 0},                 // matmul, shipped
		{1, 2, 3, 4, 5, 40, 1, 2, 3, 1, 1},           // batch matmul, calibrated
		{2, 2, 3, 3, 5, 5, 2, 1, 20, 0, 1, 1, 2, 0},  // stride-2 conv, custom
		{3, 1, 3, 5, 5, 2, 1, 56, 2, 4, 0, 0, 1},     // pool, 4 workers
		{4, 10, 12, 3, 8, 3, 0, 4, 1, 0},             // elementwise, PaddingMin 1
		{5, 6, 5, 6, 5, 24, 1, 2, 1, 1, 9, 30, 7, 1}, // chain, calibrated
		// gated convs: gates over (kh, kw), (kh) and (kw), calibrated, at
		// PaddingMin 0.9; two gates over (kh) and one over (kw) of a 1×1
		// window that factors may pad (PaddingMin 0), 4 workers
		{6, 1, 1, 1, 2, 2, 2, 0, 3, 96, 0, 32, 0, 64, 0, 1, 0, 2, 3, 1, 1, 1, 1, 1},
		{6, 0, 0, 1, 0, 2, 2, 0, 3, 32, 0, 32, 0, 64, 0, 0, 0, 2, 0, 0, 1},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s := &equivSrc{data: data}
		e, err := equivExpr(s)
		if err != nil {
			return
		}
		gens := device.Generations()
		spec := gens[s.next()%len(gens)].Subset(8 + s.next()%57)
		cons := Constraints{
			ParallelismMin: pick(s, 0.0, 0.5, 0.9),
			PaddingMin:     pick(s, 0.0, 0.5, 0.8, 0.9, 1.0),
		}
		set, fit := equivCM(s, spec, e)
		sr := New(spec, set, cons, core.DefaultConfig())
		sr.Workers = pick(s, 1, 4)
		n := leafProduct(sr, e)
		if n == 0 || n > maxFuzzLeaves {
			return
		}
		name := fmt.Sprintf("%s on %s %+v %s w%d", e.Signature(), spec.Name, cons, fit, sr.Workers)
		t.Logf("%s: %d leaves", name, n)
		ref, refErr := sr.Reference(e)
		r, err := sr.searchOp(context.Background(), e)
		if refErr != nil || err != nil {
			if (refErr == nil) != (err == nil) {
				t.Fatalf("%s: engine error %v, reference error %v", name, err, refErr)
			}
			return
		}
		checkReference(t, name, ref)
		checkEngine(t, name, r, ref)
		if r.Spaces.Optimized != ref.Spaces.Optimized {
			t.Fatalf("%s: optimized = %d, reference %d", name, r.Spaces.Optimized, ref.Spaces.Optimized)
		}
	})
}
