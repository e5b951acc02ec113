package interop

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/device"
	"repro/internal/dtype"
	"repro/internal/expr"
	"repro/internal/graph"
	"repro/internal/mathutil"
	"repro/internal/models"
	"repro/internal/search"
)

// sameSchedule reports how reconcile's outcome differs from the
// reference's, or "" when they are identical: assignment pointers and
// fields, trace, TotalNs bits, idle total, and the infeasible op and
// budget.
func sameSchedule(got *Schedule, gotErr error, want *Schedule, wantErr error) string {
	if gotErr != nil || wantErr != nil {
		g, gok := gotErr.(*InfeasibleError)
		w, wok := wantErr.(*InfeasibleError)
		if !gok || !wok || *g != *w || gotErr.Error() != wantErr.Error() {
			return fmt.Sprintf("error %v, reference %v", gotErr, wantErr)
		}
		return ""
	}
	if math.Float64bits(got.TotalNs) != math.Float64bits(want.TotalNs) || got.IdleMemPerCore != want.IdleMemPerCore {
		return fmt.Sprintf("total %v at %d idle bytes, reference %v at %d", got.TotalNs, got.IdleMemPerCore, want.TotalNs, want.IdleMemPerCore)
	}
	if len(got.Trace) != len(want.Trace) {
		return fmt.Sprintf("%d trace points, reference %d", len(got.Trace), len(want.Trace))
	}
	for i, p := range got.Trace {
		q := want.Trace[i]
		if p.IdleMemPerCore != q.IdleMemPerCore || math.Float64bits(p.TotalNs) != math.Float64bits(q.TotalNs) {
			return fmt.Sprintf("trace point %d = %+v, reference %+v", i, p, q)
		}
	}
	if len(got.Assignments) != len(want.Assignments) {
		return fmt.Sprintf("%d assignments, reference %d", len(got.Assignments), len(want.Assignments))
	}
	for i, a := range got.Assignments {
		b := want.Assignments[i]
		if a.Idle != b.Idle || a.Active != b.Active || a.IdleMemPerCore != b.IdleMemPerCore ||
			math.Float64bits(a.SetupNs) != math.Float64bits(b.SetupNs) ||
			math.Float64bits(a.ExecNs) != math.Float64bits(b.ExecNs) {
			return fmt.Sprintf("assignment %d = %+v, reference %+v", i, a, b)
		}
	}
	return ""
}

// checkReconcile compares Reconcile and ReconcileBaseline with the
// reference on one input and returns the greedy schedule (nil when
// infeasible).
func checkReconcile(t testing.TB, what string, spec *device.Spec, ops []OpPlans, memPerCore int64) *Schedule {
	t.Helper()
	var greedy *Schedule
	for _, tc := range []struct {
		name   string
		run    func(*device.Spec, []OpPlans, int64) (*Schedule, error)
		greedy bool
	}{
		{"Reconcile", Reconcile, true},
		{"ReconcileBaseline", ReconcileBaseline, false},
	} {
		got, gotErr := tc.run(spec, ops, memPerCore)
		want, wantErr := refReconcile(spec, ops, memPerCore, tc.greedy)
		if diff := sameSchedule(got, gotErr, want, wantErr); diff != "" {
			t.Fatalf("%s, %s, %d bytes/core: %s", what, tc.name, memPerCore, diff)
		}
		if tc.greedy {
			greedy = got
		}
	}
	return greedy
}

// modelPlans searches every operator of m and assembles its OpPlans the
// way the compiler does: identical operators share one cached Result,
// and the live skip activations are charged per core.
func modelPlans(t testing.TB, s *search.Searcher, m *graph.Model) []OpPlans {
	t.Helper()
	extra := m.ExtraLiveBytes()
	ops := make([]OpPlans, len(m.Ops))
	for i := range m.Ops {
		r, err := s.SearchOp(m.Ops[i].Expr)
		if err != nil {
			t.Fatalf("%s/%s: %v", m.Name, m.Ops[i].Name, err)
		}
		ops[i] = OpPlans{Op: &m.Ops[i], Result: r,
			LiveBytesPerCore: mathutil.CeilDiv64(extra[i], int64(s.Spec.Cores))}
	}
	return ops
}

// m5 are the benchmark's five models.
var m5 = []string{"BERT", "ViT", "ResNet", "OPT-1.3B-prefill", "OPT-1.3B-decode"}

// TestReconcileMatchesReference runs the greedy loop and the baseline
// against the reference on the benchmark's five models at batch 1 and
// 8, on three chip generations, with the full, a half and a quarter
// core of memory: the tight budgets drive the loop into infeasible
// re-fits and the full one through long greedy traces.
func TestReconcileMatchesReference(t *testing.T) {
	var cases, steps, infeasible int
	for _, spec := range []*device.Spec{device.IPUMK1(), device.IPUMK2(), device.IPUMK3()} {
		s := search.New(spec, costmodel.MustNewSet(spec), search.DefaultConstraints(), core.DefaultConfig())
		for _, name := range m5 {
			for _, batch := range []int{1, 8} {
				m, err := models.Build(name, batch)
				if err != nil {
					t.Fatal(err)
				}
				ops := modelPlans(t, s, m)
				full := int64(spec.CoreMemBytes)
				for _, budget := range []int64{full, full / 2, full / 4} {
					what := fmt.Sprintf("%s %s-%d", spec.Name, name, batch)
					sched := checkReconcile(t, what, spec, ops, budget)
					cases++
					if sched == nil {
						infeasible++
					} else {
						steps += len(sched.Trace)
					}
				}
			}
		}
	}
	t.Logf("%d cases identical: %d infeasible, %d greedy steps over the rest", cases, infeasible, steps)
	if infeasible == 0 || infeasible == cases || steps <= 2*(cases-infeasible) {
		t.Errorf("the cases do not exercise the loop: %d infeasible of %d, %d steps", infeasible, cases, steps)
	}
}

// TestReconcileSharedResultDifferentWeights gives four operators one
// cached search Result but different weight inputs: the weight bytes
// belong to the operator, not to the shared candidates.
func TestReconcileSharedResultDifferentWeights(t *testing.T) {
	spec := device.IPUMK2()
	shared := opPlans(t, "shared", 1024, 1024, 4096, 1).Result
	var ops []OpPlans
	for i, w := range [][]int{{}, {0}, {1}, {0, 1}} {
		e := expr.MatMul(fmt.Sprintf("w%d", i), 1024, 1024, 4096, dtype.FP16)
		op := &graph.Op{Name: e.Name, Expr: e, WeightInputs: w,
			Sources: []int{graph.External, graph.External}, Repeat: 6 * (i + 1)}
		ops = append(ops, OpPlans{Op: op, Result: shared})
	}
	full := int64(spec.CoreMemBytes)
	var s *Schedule
	for _, budget := range []int64{full, full / 2, full / 4} {
		if sched := checkReconcile(t, "shared result", spec, ops, budget); budget == full {
			s = sched
		}
	}
	if s == nil || len(s.Trace) < 2 {
		t.Fatal("no greedy step on the shared result")
	}
	if s.Assignments[0].IdleMemPerCore != 0 || s.Assignments[0].SetupNs != 0 {
		t.Errorf("an operator without weights idles in %d bytes at %v ns setup",
			s.Assignments[0].IdleMemPerCore, s.Assignments[0].SetupNs)
	}
}

// TestReconcileAllocsFlat pins that a greedy step allocates nothing: on
// ResNet-8, Reconcile allocates what ReconcileBaseline does plus only
// the growth of its longer Trace, however many steps it takes.
func TestReconcileAllocsFlat(t *testing.T) {
	spec := device.IPUMK2()
	m, err := models.Build("ResNet", 8)
	if err != nil {
		t.Fatal(err)
	}
	ops := modelPlans(t, searcher(), m)
	memPerCore := int64(spec.CoreMemBytes)
	s, err := Reconcile(spec, ops, memPerCore)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Trace) < 8 {
		t.Fatalf("ResNet-8 took %d greedy steps; the guard needs a long trace", len(s.Trace))
	}
	greedy := testing.AllocsPerRun(20, func() { Reconcile(spec, ops, memPerCore) })
	baseline := testing.AllocsPerRun(20, func() { ReconcileBaseline(spec, ops, memPerCore) })
	// the reallocations append makes growing a Trace from one point to all
	var trace []TracePoint
	growth := 0
	for len(trace) < len(s.Trace) {
		if len(trace) == cap(trace) && len(trace) > 0 {
			growth++
		}
		trace = append(trace, TracePoint{})
	}
	if greedy > baseline+float64(growth) {
		t.Errorf("Reconcile allocates %.0f times over %d steps; baseline %.0f + %d trace growths",
			greedy, len(s.Trace), baseline, growth)
	}
	t.Logf("ResNet-8: %d steps, Reconcile %.0f allocs, baseline %.0f, trace growths %d",
		len(s.Trace), greedy, baseline, growth)
}

var (
	fuzzOnce sync.Once
	fuzzPool []*search.Result
)

// FuzzReconcile draws models from a small pool of searched matmuls —
// the operators, their repeats, weight inputs and live bytes, and the
// memory budget all come from the fuzz bytes — and checks that Reconcile
// and ReconcileBaseline reproduce the reference exactly.
func FuzzReconcile(f *testing.F) {
	f.Add([]byte{3, 0, 8, 2, 0, 1, 24, 2, 3, 2, 1, 1, 0, 128})
	f.Add([]byte{5, 4, 1, 3, 40, 5, 2, 1, 0, 3, 30, 3, 9, 2, 0, 0, 2, 1, 7, 2, 64})
	f.Add([]byte{7, 0, 2, 1, 0, 0, 2, 1, 0, 1, 2, 1, 9, 2, 0, 3, 0, 1, 3, 12, 2, 1, 255, 3, 0, 1, 200, 32})
	f.Add([]byte{1, 5, 33, 3, 0, 16})
	f.Add([]byte{})
	f.Add([]byte("C01000700070097001"))
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzOnce.Do(func() {
			for i, d := range [][3]int{
				{256, 256, 1024}, {512, 512, 512}, {1024, 1024, 1024},
				{1024, 4096, 1024}, {128, 2048, 512}, {2048, 1024, 4096},
			} {
				r, err := searcher().SearchOp(expr.MatMul(fmt.Sprintf("pool%d", i), d[0], d[1], d[2], dtype.FP16))
				if err != nil {
					panic(err)
				}
				fuzzPool = append(fuzzPool, r)
			}
		})
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		spec := device.IPUMK2()
		coreMem := int64(spec.CoreMemBytes)
		ops := make([]OpPlans, 1+next()%8)
		for i := range ops {
			r := fuzzPool[next()%len(fuzzPool)]
			op := &graph.Op{Name: fmt.Sprintf("op%d", i), WeightInputs: [][]int{{}, {0}, {1}, {0, 1}}[next()%4],
				Repeat: next()%34 - 1}
			// down to a negative credit: a live term that lets an active
			// plan outgrow the memory the idle layouts leave is the one way
			// a cached upgrade can stop fitting
			ops[i] = OpPlans{Op: op, Result: r, LiveBytesPerCore: int64(next()-64) * coreMem / 512}
		}
		memPerCore := int64(1+next()) * coreMem / 128
		checkReconcile(t, "fuzz", spec, ops, memPerCore)
	})
}
