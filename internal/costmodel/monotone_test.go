package costmodel

import (
	"math/rand"
	"testing"

	"repro/internal/device"
	"repro/internal/expr"
	"repro/internal/kernel"
)

// dominate returns a task that dominates t componentwise: every field
// the feature maps read grows by an independent non-negative amount.
func dominate(rng *rand.Rand, t kernel.Task) kernel.Task {
	grow := func(v int) int { return v + rng.Intn(64) }
	grow64 := func(v int64) int64 { return v + int64(rng.Intn(1<<12)) }
	d := t
	d.M, d.N, d.K = grow(t.M), grow(t.N), grow(t.K)
	d.Elems = grow64(t.Elems)
	d.FLOPsPerElem = grow(t.FLOPsPerElem)
	d.InBytes, d.OutBytes = grow64(t.InBytes), grow64(t.OutBytes)
	// KH/KW stay fixed: the window is an operator-level constant, and
	// conv (the one kind with a window-dependent feature) never declares
	// the capability anyway.
	return d
}

// TestMonotoneLBIsAdmissible is the capability contract over the fitted
// model family: for every model declaring MonotoneLB, Predict evaluated
// at a task never exceeds Predict at any task dominating it — which is
// exactly what makes Predict(minimalTask) an admissible compute floor
// ("never exceeds Predict" at the true task) for whole search subtrees.
// Models that cannot promise this (convolution's window feature, or a
// fit with negative coefficients) must not declare it.
func TestMonotoneLBIsAdmissible(t *testing.T) {
	for _, spec := range []*device.Spec{device.IPUMK2(), device.IPUMK2().Subset(64), device.VIPU(2)} {
		set := MustNewSet(spec)
		declared := 0
		for _, kind := range set.Kinds() {
			m := set.Model(kind)
			if !IsMonotone(m) {
				if kind != expr.KindConv {
					t.Logf("%s/%v: no MonotoneLB capability (fit has negative coefficients)", spec.Name, kind)
				}
				continue
			}
			declared++
			rng := rand.New(rand.NewSource(int64(17 + kind)))
			for trial := 0; trial < 2000; trial++ {
				base := randomTask(rng, kind)
				grown := dominate(rng, base)
				lo, hi := m.Predict(base), m.Predict(grown)
				if lo > hi {
					t.Fatalf("%s/%v: Predict(%+v)=%g exceeds Predict of dominating task %+v=%g — MonotoneLB declaration is wrong",
						spec.Name, kind, base, lo, grown, hi)
				}
			}
		}
		if declared == 0 {
			t.Errorf("%s: no fitted model declared MonotoneLB — the compute floor would never engage", spec.Name)
		}
	}
}

// TestConvNeverDeclaresMonotone pins the one structural exclusion: the
// convolution feature map contains InBytes/(KH·KW), which decreases as
// the window grows, so a conv fit must never claim the capability no
// matter what its coefficients look like.
func TestConvNeverDeclaresMonotone(t *testing.T) {
	m := &Model{Kind: expr.KindConv, Theta: []float64{1, 1, 1, 1}}
	if m.MonotoneLB() {
		t.Fatal("conv model with all-positive coefficients must still refuse MonotoneLB")
	}
}

// TestNegativeCoefficientRefusesMonotone pins the coefficient check: a
// negative non-intercept coefficient makes the linear form decreasing
// in that feature, so the capability must be refused; a negative
// intercept alone is fine (it shifts, not slopes).
func TestNegativeCoefficientRefusesMonotone(t *testing.T) {
	bad := &Model{Kind: expr.KindMatMul, Theta: []float64{5, 1, -0.1, 1}}
	if bad.MonotoneLB() {
		t.Fatal("negative non-intercept coefficient must refuse MonotoneLB")
	}
	ok := &Model{Kind: expr.KindMatMul, Theta: []float64{-5, 1, 0.1, 1}}
	if !ok.MonotoneLB() {
		t.Fatal("negative intercept alone must not refuse MonotoneLB")
	}
}

// TestCustomMonotoneRegistration pins the registration plumbing: only
// RegisterCustomMonotone declares the capability, and Resolve forwards
// it through the returned Predictor.
func TestCustomMonotoneRegistration(t *testing.T) {
	set := MustNewSet(device.IPUMK2().Subset(16))
	f := func(t kernel.Task) float64 { return float64(t.M) }
	set.RegisterCustom("opaque", f)
	set.RegisterCustomMonotone("mono", f)

	if set.CustomMonotone("opaque") {
		t.Error("RegisterCustom must not declare MonotoneLB")
	}
	if !set.CustomMonotone("mono") {
		t.Error("RegisterCustomMonotone must declare MonotoneLB")
	}
	if IsMonotone(set.Resolve("opaque", expr.KindMatMul)) {
		t.Error("opaque custom predictor claims MonotoneLB")
	}
	if !IsMonotone(set.Resolve("mono", expr.KindMatMul)) {
		t.Error("monotone custom predictor lost its capability through Resolve")
	}
}
