package costmodel

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/device"
	"repro/internal/expr"
	"repro/internal/kernel"
)

// workSrc decodes a work-floor case from a byte string, so the seeded
// property test and the native fuzz target draw from one generator. An
// exhausted source yields zeros.
type workSrc struct {
	data []byte
	i    int
}

func (s *workSrc) next() int {
	if s.i >= len(s.data) {
		return 0
	}
	s.i++
	return int(s.data[s.i-1])
}

// in returns a value in [1, n].
func (s *workSrc) in(n int) int { return 1 + s.next()%n }

// floorOf returns a value in [0, v], v itself half the time: the tight
// case, where an inadmissible floor shows first.
func (s *workSrc) floorOf(v int64) int64 {
	b := s.next()
	if b%2 == 0 {
		return v
	}
	return int64(b) * v / 255
}

var (
	workSetsOnce sync.Once
	workSets     []*Set
)

// shippedSets fits every generation's shipped model set once.
func shippedSets() []*Set {
	workSetsOnce.Do(func() {
		for _, spec := range device.Generations() {
			workSets = append(workSets, MustNewSet(spec))
		}
	})
	return workSets
}

// The outcomes of one drawn case.
const (
	workShipped    = iota // shipped fit declares WorkLB; floor checked
	workCalibrated        // calibrated fit declares WorkLB; floor checked
	workRefused           // a negative θ refuses the capability
	workOutcomes
)

// workCase decodes (predictor, aggregate task, split): a kind; the
// shipped fit of one generation, or that fit recalibrated by
// Set.Calibrate over random samples measured with noise (so refit θ and
// the shipped-θ fallback both turn up; calibrated reports which); and
// per role (M, N, K, chain) a step extent rp and step count s, the
// aggregate taking any padded extent up to s·rp. S is the product of the step counts (a gather's
// row shards and an extra axis' steps among them) and steps any count
// up to S. Operand bytes of the aggregate floor S times the step's, and
// a convolution's aggregate window bounds the step's (or is 0: none).
func workCase(s *workSrc) (pred *Model, calibrated bool, agg, step kernel.Task, S, steps int) {
	kinds := []expr.OpKind{expr.KindMatMul, expr.KindConv, expr.KindPool,
		expr.KindReduce, expr.KindElementwise, expr.KindGather}
	kind := kinds[s.next()%len(kinds)]
	sets := shippedSets()
	base := sets[s.next()%len(sets)]
	pred = base.Model(kind)
	if s.next()%2 == 1 {
		rng := rand.New(rand.NewSource(int64(s.next()<<8 | s.next())))
		set := &Set{Spec: base.Spec, models: base.models, acc: base.acc, custom: map[string]CostFunc{}}
		ring := NewSampleRing(64)
		// measured at most 70% under the kernel model, or never under it
		lo := []float64{0.3, 1, 1}[s.next()%3]
		for n := 4 + s.next()%40; n > 0; n-- {
			task := randomTask(rng, kind)
			ring.Record(task, kernel.Nanoseconds(base.Spec, task)*(lo+(1.7-lo)*rng.Float64()))
		}
		if _, err := set.Calibrate(ring, 0); err != nil {
			panic(err)
		}
		pred, calibrated = set.Resolve("", kind).(*Model), true
	}

	var rp, ext [4]int // roles M, N, K, chain
	S = 1
	for r := range rp {
		st := s.in(8)
		rp[r] = s.in(96)
		ext[r] = st * rp[r] // SubLen; the aggregate may sit below it
		if s.next()%2 == 1 {
			ext[r] = s.in(ext[r])
		}
		S *= st
	}
	gatherSteps := s.in(4)
	S *= gatherSteps * s.in(3)
	steps = S
	if s.next()%2 == 1 {
		steps = s.in(S)
	}

	step = kernel.Task{Kind: kind, KH: 1, KW: 1}
	agg = step
	step.InBytes, step.OutBytes = int64(s.next()<<8|s.next()), int64(s.next()<<6|s.next())
	agg.InBytes, agg.OutBytes = s.floorOf(int64(S)*step.InBytes), s.floorOf(int64(S)*step.OutBytes)
	switch kind {
	case expr.KindMatMul, expr.KindConv:
		step.M, step.N, step.K = rp[0], rp[1], rp[2]
		agg.M, agg.N, agg.K = ext[0], ext[1], ext[2]
		if kind == expr.KindMatMul && s.next()%2 == 1 {
			step.ChainK, agg.ChainK = rp[3], ext[3]
		}
		if kind == expr.KindConv {
			step.KH, step.KW = s.in(7), s.in(7)
			agg.KH = step.KH*step.KW + s.next()%4 // an upper bound on the window
			if s.next()%4 == 0 {
				agg.KH = 0 // no bound: the feature is dropped
			}
		}
	case expr.KindPool, expr.KindReduce, expr.KindElementwise:
		c := s.next() % 5
		step.Elems, agg.Elems = int64(rp[0]*rp[1]), int64(ext[0]*ext[1])
		step.FLOPsPerElem, agg.FLOPsPerElem = c, c
		if kind != expr.KindElementwise {
			step.FLOPsPerElem, agg.FLOPsPerElem = max(c, 1)*rp[2], max(c, 1)*ext[2]
		}
	case expr.KindGather:
		step.M = max(1, (rp[0]+gatherSteps-1)/gatherSteps)
		agg.M = ext[0]
	}
	return pred, calibrated, agg, step, S, steps
}

// checkWorkFloor asserts, for one case, that a predictor declaring
// WorkLB floors the split with a line that never falls as steps grow:
// WorkFloorLine(agg) = (oneStep, perStep) with perStep ≥ 0 and
// oneStep + perStep·(steps − 1) ≤ S × Predict(step), shipped and
// calibrated fits alike. The tolerance is the relative 1e-9 the
// search's bounds shrink by.
func checkWorkFloor(t testing.TB, data []byte) int {
	t.Helper()
	pred, calibrated, agg, step, S, steps := workCase(&workSrc{data: data})
	w := WorkFloor(pred)
	if w == nil {
		return workRefused
	}
	oneStep, perStep := w.WorkFloorLine(agg)
	if !(perStep >= 0) {
		t.Fatalf("%T %v θ=%v: work floor line falls by %g per step", pred, agg.Kind, pred.Theta, perStep)
	}
	floor := oneStep + perStep*float64(steps-1)
	total := float64(S) * pred.Predict(step)
	outcome := workShipped
	if calibrated {
		outcome = workCalibrated
	}
	if floor*(1-1e-9) > total {
		t.Fatalf("%T %v θ=%v: work floor %g at agg %+v, %d steps exceeds %d × step %+v = %g",
			pred, agg.Kind, pred.Theta, floor, agg, steps, S, step, total)
	}
	return outcome
}

// TestWorkFloorIsAdmissible runs checkWorkFloor over seeded random
// cases: every kind, every generation's shipped fit and random
// recalibrations of it. Each outcome must turn up often.
func TestWorkFloorIsAdmissible(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var counts [workOutcomes]int
	data := make([]byte, 64)
	for iter := 0; iter < 20000; iter++ {
		rng.Read(data)
		counts[checkWorkFloor(t, data)]++
	}
	t.Logf("checked: shipped %d, calibrated %d; refused: negative θ %d",
		counts[workShipped], counts[workCalibrated], counts[workRefused])
	for _, n := range counts {
		if n < 500 {
			t.Fatalf("generator imbalance: outcomes %v — property undertested", counts)
		}
	}
}

// TestWorkLBDeclaration pins the derived rule: the shipped fit declares
// the capability exactly when every θ, the intercept included, is ≥ 0;
// custom cost functions never declare it.
func TestWorkLBDeclaration(t *testing.T) {
	for _, tc := range []struct {
		theta []float64
		want  bool
	}{
		{[]float64{5, 1, 0.1, 1}, true},
		{[]float64{0, 0, 0, 0}, true},
		{[]float64{-5, 1, 0.1, 1}, false},
		{[]float64{5, 1, -0.1, 1}, false},
		{nil, false},
	} {
		m := &Model{Kind: expr.KindConv, Theta: tc.theta}
		if got := WorkFloor(m) != nil; got != tc.want {
			t.Errorf("θ=%v: WorkLB %t, want %t", tc.theta, got, tc.want)
		}
	}
	set := MustNewSet(device.IPUMK2().Subset(16))
	set.RegisterCustom("custom", func(t kernel.Task) float64 { return float64(t.M) })
	if WorkFloor(set.Resolve("custom", expr.KindMatMul)) != nil {
		t.Error("a custom cost function declares WorkLB")
	}
}

// FuzzWorkFloor runs the same contract over fuzzer-chosen cases.
func FuzzWorkFloor(f *testing.F) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 8; i++ {
		seed := make([]byte, 64)
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkWorkFloor(t, data)
	})
}
