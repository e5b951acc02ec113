// Package costmodel implements T10's cost model (§4.3.1): per-operator-
// type linear regression models that map a sub-task's shape to its
// predicted per-core execution time, plus a linear model for inter-core
// communication time over transfer volume.
//
// The paper profiles randomly shaped sub-tasks on a single IPU core and
// fits linear regressions; here the "profiler" is internal/kernel (the
// simulator's ground-truth timing model, standing in for real vertices —
// see the README's "Calibrated cost model" section). The fit is genuinely imperfect: the kernel model
// contains max()-of-streams behaviour and black-box convolution terms
// that the linear features cannot express, which is exactly what Fig 8
// of the paper shows (near-perfect for most operators, worst for
// convolution).
//
// Users can register custom cost functions for custom kernels, matching
// the interface the paper exposes.
package costmodel

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/device"
	"repro/internal/expr"
	"repro/internal/kernel"
	"repro/internal/mathutil"
)

// CostFunc predicts the per-core execution time of a sub-task in
// nanoseconds. Custom kernels supply one of these.
type CostFunc func(t kernel.Task) float64

// Model is one fitted linear regression: Predict = θ · features(task).
type Model struct {
	Kind  expr.OpKind
	Theta []float64
}

// features maps a task to the regression features of its operator
// type and their count, in an array so that Predict — called per search
// candidate — never allocates. Padded MAC counts are features (not raw
// ones): the compiler knows the hardware alignment rules, so the
// regression should too.
func features(kind expr.OpKind, t kernel.Task) ([4]float64, int) {
	switch kind {
	case expr.KindMatMul:
		padM := float64(mathutil.RoundUp(max(t.M, 1), 8))
		padK := float64(mathutil.RoundUp(max(t.K, 1), 16))
		n := float64(max(t.N, 1))
		macs := padM * padK * n
		rows := padM / 8 * n
		if t.ChainK > 0 {
			// Chained (fused) contraction: the MAC and row-block features
			// count both AMP stages, mirroring kernel.matmulCycles. At
			// ChainK = 0 the values are identical to the unchained ones,
			// so existing fits are unchanged.
			padC := float64(mathutil.RoundUp(t.ChainK, 16))
			k := float64(max(t.K, 1))
			macs = padM * (padC*k + padK*n)
			rows = padM / 8 * (k + n)
		}
		return [4]float64{
			1,
			macs,
			float64(t.InBytes + t.OutBytes),
			rows,
		}, 4
	case expr.KindConv:
		padM := float64(mathutil.RoundUp(max(t.M, 1), 8))
		padK := float64(mathutil.RoundUp(max(t.K, 1), 16))
		n := float64(max(t.N, 1))
		window := float64(max(t.KH, 1) * max(t.KW, 1))
		return [4]float64{
			1,
			padM * padK * n,
			float64(t.InBytes + t.OutBytes),
			// the window-dependent input rearrangement dominates small
			// kernels; the black-box per-window term stays unmodelled
			float64(t.InBytes) / window,
		}, 4
	case expr.KindPool, expr.KindReduce, expr.KindElementwise:
		return [4]float64{
			1,
			float64(t.Elems) * float64(max(t.FLOPsPerElem, 1)),
			float64(t.InBytes + t.OutBytes),
		}, 3
	case expr.KindGather:
		return [4]float64{
			1,
			float64(max(t.M, 1)),
			float64(t.InBytes + t.OutBytes),
		}, 3
	}
	panic(fmt.Sprintf("costmodel: unknown kind %v", kind))
}

// Predict returns the model's time estimate in nanoseconds. Estimates
// are clamped at zero: a regression may extrapolate slightly negative
// for degenerate shapes.
func (m *Model) Predict(t kernel.Task) float64 {
	f, _ := features(m.Kind, t)
	return m.dot(&f)
}

// dot is θ · f clamped at zero.
func (m *Model) dot(f *[4]float64) float64 {
	var ns float64
	for i, th := range m.Theta {
		ns += th * f[i]
	}
	if ns < 0 {
		return 0
	}
	return ns
}

// WorkLB reports whether this fitted model declares the work-floor
// capability (see the WorkLB interface). It does exactly when every
// coefficient, the intercept included, is non-negative: S steps then
// predict S·θ0 plus θ times each feature summed over the steps, and a
// task whose features floor those sums prices every split from below.
func (m *Model) WorkLB() bool {
	if len(m.Theta) == 0 {
		return false
	}
	for _, th := range m.Theta {
		if th < 0 {
			return false
		}
	}
	return true
}

// WorkFloorLine returns the work floor of the WorkLB interface as a
// line in the step count: the floor at steps steps is oneStep +
// perStep·(steps − 1), with oneStep = Predict(agg) and perStep = θ0.
// Meaningful only when m.WorkLB(). A convolution's agg.KH = 0 marks a
// window no completion bound is known for: its InBytes/window feature
// is dropped, which θ ≥ 0 keeps a floor.
func (m *Model) WorkFloorLine(agg kernel.Task) (oneStep, perStep float64) {
	f, _ := features(m.Kind, agg)
	if m.Kind == expr.KindConv && agg.KH == 0 {
		f[3] = 0
	}
	return m.dot(&f), m.Theta[0]
}

// Accuracy reports the quality of a fit on an evaluation set; Pred and
// Meas carry the raw scatter points behind Fig 8.
type Accuracy struct {
	R2   float64
	MAPE float64 // mean absolute percentage error
	N    int
	Pred []float64
	Meas []float64
}

// Sample pairs a task with its measured time.
type Sample struct {
	Task kernel.Task
	Ns   float64
}

// ProfileSamples generates n randomly shaped sub-tasks of an operator
// type and "profiles" them on the kernel model (the paper's single-core
// profiling step). The generator is deterministic for a given seed.
func ProfileSamples(spec *device.Spec, kind expr.OpKind, n int, seed int64) []Sample {
	rng := rand.New(rand.NewSource(seed))
	samples := make([]Sample, 0, n)
	for i := 0; i < n; i++ {
		t := randomTask(rng, kind)
		samples = append(samples, Sample{Task: t, Ns: kernel.Nanoseconds(spec, t)})
	}
	return samples
}

func randomTask(rng *rand.Rand, kind expr.OpKind) kernel.Task {
	t := kernel.Task{Kind: kind, KH: 1, KW: 1}
	switch kind {
	case expr.KindMatMul:
		t.M = 1 + rng.Intn(256)
		t.K = 1 + rng.Intn(512)
		t.N = 1 + rng.Intn(64)
		t.InBytes = int64(t.M*t.K+t.K*t.N) * 2
		t.OutBytes = int64(t.M*t.N) * 2
	case expr.KindConv:
		kh := 1 + rng.Intn(3)*2 // 1,3,5
		outHW := 1 + rng.Intn(24)
		cin := 1 + rng.Intn(64)
		f := 1 + rng.Intn(32)
		t.KH, t.KW = kh, kh
		t.M = outHW * outHW
		t.N = f
		t.K = cin * kh * kh
		inHW := outHW + kh - 1
		t.InBytes = int64(cin*inHW*inHW)*2 + int64(f*cin*kh*kh)*2
		t.OutBytes = int64(f*outHW*outHW) * 2
	case expr.KindPool:
		t.Elems = int64(1 + rng.Intn(1<<14))
		t.FLOPsPerElem = 1 + rng.Intn(4)
		t.InBytes = t.Elems * int64(t.FLOPsPerElem) * 2
		t.OutBytes = t.Elems * 2
	case expr.KindReduce, expr.KindElementwise:
		t.Elems = int64(1 + rng.Intn(1<<15))
		t.FLOPsPerElem = 1 + rng.Intn(8)
		t.InBytes = t.Elems * 2 * 2
		t.OutBytes = t.Elems * 2
	case expr.KindGather:
		t.M = 1 + rng.Intn(512)
		row := int64(64 + rng.Intn(1024))
		t.InBytes = int64(t.M) * row * 2
		t.OutBytes = t.InBytes
	}
	return t
}

// FitKind fits a linear model for one operator type from samples, and
// evaluates it on eval (use separate sample sets for honest accuracy).
// The regression is weighted by 1/measured² — it minimizes *relative*
// error, since the planner compares sub-tasks spanning four orders of
// magnitude and a percent matters equally at every scale.
func FitKind(kind expr.OpKind, train, eval []Sample) (*Model, Accuracy, error) {
	if len(train) == 0 {
		return nil, Accuracy{}, fmt.Errorf("costmodel: no training samples for %v", kind)
	}
	_, dim := features(kind, train[0].Task)
	xtx := make([][]float64, dim)
	for i := range xtx {
		xtx[i] = make([]float64, dim)
	}
	xty := make([]float64, dim)
	for _, s := range train {
		f, _ := features(kind, s.Task)
		w := 1.0
		if s.Ns > 0 {
			w = 1 / (s.Ns * s.Ns)
		}
		for i := 0; i < dim; i++ {
			for j := 0; j < dim; j++ {
				xtx[i][j] += w * f[i] * f[j]
			}
			xty[i] += w * f[i] * s.Ns
		}
	}
	theta, err := solve(xtx, xty)
	if err != nil {
		return nil, Accuracy{}, fmt.Errorf("costmodel: fit %v: %w", kind, err)
	}
	m := &Model{Kind: kind, Theta: theta}
	return m, m.evaluate(eval), nil
}

func (m *Model) evaluate(eval []Sample) Accuracy {
	acc := Accuracy{N: len(eval)}
	if len(eval) == 0 {
		return acc
	}
	var mean float64
	for _, s := range eval {
		mean += s.Ns
	}
	mean /= float64(len(eval))
	var ssRes, ssTot, mape float64
	for _, s := range eval {
		p := m.Predict(s.Task)
		acc.Pred = append(acc.Pred, p)
		acc.Meas = append(acc.Meas, s.Ns)
		ssRes += (s.Ns - p) * (s.Ns - p)
		ssTot += (s.Ns - mean) * (s.Ns - mean)
		if s.Ns > 0 {
			mape += math.Abs(s.Ns-p) / s.Ns
		}
	}
	if ssTot > 0 {
		acc.R2 = 1 - ssRes/ssTot
	}
	acc.MAPE = mape / float64(len(eval))
	return acc
}

// solve performs Gaussian elimination with partial pivoting on the
// normal equations (dimensions are tiny: 3–4).
func solve(a [][]float64, b []float64) ([]float64, error) {
	n := len(b)
	// working copies
	m := make([][]float64, n)
	for i := range m {
		m[i] = append([]float64(nil), a[i]...)
		m[i] = append(m[i], b[i])
	}
	for col := 0; col < n; col++ {
		// pivot
		p := col
		for r := col + 1; r < n; r++ {
			if math.Abs(m[r][col]) > math.Abs(m[p][col]) {
				p = r
			}
		}
		if math.Abs(m[p][col]) < 1e-12 {
			return nil, fmt.Errorf("singular normal matrix at column %d", col)
		}
		m[col], m[p] = m[p], m[col]
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := m[r][col] / m[col][col]
			for c := col; c <= n; c++ {
				m[r][c] -= f * m[col][c]
			}
		}
	}
	x := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = m[i][n] / m[i][i]
	}
	return x, nil
}
