package costmodel

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/device"
	"repro/internal/expr"
	"repro/internal/kernel"
)

func mk2() *device.Spec { return device.IPUMK2() }

func TestSolveExact(t *testing.T) {
	// 2x + y = 5; x + 3y = 10 → x = 1, y = 3
	x, err := solve([][]float64{{2, 1}, {1, 3}}, []float64{5, 10})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-1) > 1e-9 || math.Abs(x[1]-3) > 1e-9 {
		t.Errorf("solve = %v, want [1 3]", x)
	}
}

func TestSolveSingular(t *testing.T) {
	if _, err := solve([][]float64{{1, 2}, {2, 4}}, []float64{1, 2}); err == nil {
		t.Error("singular system should error")
	}
}

func TestFitRecoversSyntheticLinearModel(t *testing.T) {
	// If the data really is linear in the features, the fit must be exact.
	truth := []float64{100, 0.02, 0.005, 1.5}
	var train, eval []Sample
	spec := mk2()
	for _, set := range []*[]Sample{&train, &eval} {
		seed := int64(len(*set) + 7)
		for _, s := range ProfileSamples(spec, expr.KindMatMul, 100, seed) {
			f, _ := features(expr.KindMatMul, s.Task)
			ns := 0.0
			for i := range truth {
				ns += truth[i] * f[i]
			}
			*set = append(*set, Sample{Task: s.Task, Ns: ns})
		}
	}
	m, acc, err := FitKind(expr.KindMatMul, train, eval)
	if err != nil {
		t.Fatal(err)
	}
	for i := range truth {
		if math.Abs(m.Theta[i]-truth[i]) > 1e-6*math.Abs(truth[i])+1e-9 {
			t.Errorf("theta[%d] = %g, want %g", i, m.Theta[i], truth[i])
		}
	}
	if acc.R2 < 0.999999 {
		t.Errorf("R2 on linear data = %f, want ~1", acc.R2)
	}
}

func TestFitAccuracyAgainstKernelModel(t *testing.T) {
	// Fig 8 shape: near-perfect for MatMul and vector ops, worst for Conv.
	spec := mk2()
	r2 := make(map[expr.OpKind]float64)
	for i, kind := range allKinds {
		train := ProfileSamples(spec, kind, 300, int64(10+i))
		eval := ProfileSamples(spec, kind, 150, int64(90+i))
		_, acc, err := FitKind(kind, train, eval)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		r2[kind] = acc.R2
		t.Logf("%v: R2=%.4f MAPE=%.2f%%", kind, acc.R2, 100*acc.MAPE)
	}
	if r2[expr.KindMatMul] < 0.97 {
		t.Errorf("MatMul R2 = %f, want near-perfect", r2[expr.KindMatMul])
	}
	if r2[expr.KindElementwise] < 0.94 {
		t.Errorf("Elementwise R2 = %f, want near-perfect", r2[expr.KindElementwise])
	}
	if r2[expr.KindConv] >= r2[expr.KindMatMul] {
		t.Errorf("Conv (%.4f) should fit worse than MatMul (%.4f) — black-box kernel terms",
			r2[expr.KindConv], r2[expr.KindMatMul])
	}
	if r2[expr.KindConv] < 0.80 {
		t.Errorf("Conv R2 = %f: still usable per the paper", r2[expr.KindConv])
	}
}

func TestPredictNonNegative(t *testing.T) {
	spec := mk2()
	set := MustNewSet(spec)
	f := func(m, n, k uint16) bool {
		task := kernel.Task{
			Kind: expr.KindMatMul,
			M:    int(m)%512 + 1, N: int(n)%512 + 1, K: int(k)%512 + 1,
		}
		task.InBytes = int64(task.M*task.K+task.K*task.N) * 2
		task.OutBytes = int64(task.M*task.N) * 2
		return set.Resolve("op", task.Kind).Predict(task) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCustomCostFunction(t *testing.T) {
	set := MustNewSet(mk2())
	set.RegisterCustom("mySort", func(t kernel.Task) float64 { return 42 })
	task := kernel.Task{Kind: expr.KindElementwise, Elems: 100}
	if got := set.Resolve("mySort", task.Kind).Predict(task); got != 42 {
		t.Errorf("custom cost = %f, want 42", got)
	}
	// other ops keep the fitted model
	if got := set.Resolve("other", task.Kind).Predict(task); got == 42 {
		t.Error("non-custom op should not use the custom function")
	}
}

func TestPredictTracksKernelOrdering(t *testing.T) {
	// The model need not be exact but must preserve gross ordering:
	// a 10x larger matmul must predict larger.
	set := MustNewSet(mk2())
	small := kernel.Task{Kind: expr.KindMatMul, M: 16, N: 16, K: 64,
		InBytes: (16*64 + 64*16) * 2, OutBytes: 16 * 16 * 2}
	big := kernel.Task{Kind: expr.KindMatMul, M: 64, N: 64, K: 256,
		InBytes: (64*256 + 256*64) * 2, OutBytes: 64 * 64 * 2}
	if set.Resolve("x", small.Kind).Predict(small) >= set.Resolve("x", big.Kind).Predict(big) {
		t.Error("prediction ordering broken")
	}
}

func TestAccuracyExposed(t *testing.T) {
	set := MustNewSet(mk2())
	for _, kind := range set.Kinds() {
		acc := set.Accuracy(kind)
		if acc.N == 0 || len(acc.Pred) != acc.N || len(acc.Meas) != acc.N {
			t.Errorf("%v: accuracy report incomplete: %+v", kind, acc.N)
		}
	}
}
