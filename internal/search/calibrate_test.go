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

// calibratedCM builds a fresh cost-model set (never the shared testCM —
// calibration mutates resolution) refit over a broadly seeded sample
// ring, the way a warmed-up serving process would be.
func calibratedCM(t testing.TB, spec *device.Spec) *costmodel.Set {
	t.Helper()
	set := costmodel.MustNewSet(spec)
	ring := costmodel.NewSampleRing(1 << 14)
	for i, kind := range set.Kinds() {
		for _, s := range costmodel.ProfileSamples(spec, kind, 400, int64(9000+i)) {
			ring.Record(s.Task, s.Ns)
		}
	}
	cal, err := set.Calibrate(ring, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cal.Tag() == "" {
		t.Fatal("calibration produced an empty tag")
	}
	return set
}

// TestSearchEquivalenceCalibrated is TestSearchEquivalence's acceptance
// clause for the calibrated cost model: with a refit predictor pricing
// both the plans and the subtree bound, the engine still returns
// byte-identical Pareto sets to Searcher.Reference priced on the same
// calibrated set, at every worker count and telemetry setting.
func TestSearchEquivalenceCalibrated(t *testing.T) {
	spec := device.IPUMK2().Subset(64)
	set := calibratedCM(t, spec)
	ops := []*expr.Expr{
		expr.MatMul("mm", 256, 256, 256, dtype.FP16),
		expr.ReduceSum("sum", 64, 256, dtype.FP16),
		expr.GatherOp("emb", 128, 1000, 64, dtype.FP16),
	}
	for _, e := range ops {
		s := New(spec, set, DefaultConstraints(), core.DefaultConfig())
		ref, err := s.Reference(e)
		if err != nil {
			t.Fatalf("%s: reference: %v", e.Name, err)
		}
		checkReference(t, e.Name, ref)
		for _, workers := range []int{1, 4} {
			for _, telemetry := range []bool{false, true} {
				name := fmt.Sprintf("%s/w%d/tel=%t", e.Name, workers, telemetry)
				s.Workers = workers
				ctx := context.Background()
				if telemetry {
					ctx = WithCollector(ctx, new(Collector))
				}
				r, err := s.searchOp(ctx, e)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				checkEngine(t, name, r, ref)
			}
		}
	}
}

// TestSampleTapFiresPerParetoSurvivor pins the post-search measurement
// hook: one (kernel task, ground-truth per-step time) sample per Pareto
// survivor of a cold search, priced by the kernel model the simulator
// charges.
func TestSampleTapFiresPerParetoSurvivor(t *testing.T) {
	s := newSearcher()
	type tapped struct {
		task kernel.Task
		ns   float64
	}
	var got []tapped
	s.SampleTap = func(task kernel.Task, measuredNs float64) {
		got = append(got, tapped{task, measuredNs})
	}
	s.Workers = 1 // the tap itself runs post-merge; workers just add noise to ordering
	e := expr.MatMul("mm", 256, 256, 256, dtype.FP16)
	r, err := s.searchOp(context.Background(), e)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(r.Pareto) {
		t.Fatalf("tap fired %d times, want one per Pareto survivor (%d)", len(got), len(r.Pareto))
	}
	for i := range r.Pareto {
		wantTask := r.Pareto[i].Plan.KernelTask()
		if got[i].task != wantTask {
			t.Errorf("tap[%d] task %+v, want the survivor's kernel task %+v", i, got[i].task, wantTask)
		}
		if want := kernel.Nanoseconds(s.CM.Spec, wantTask); got[i].ns != want {
			t.Errorf("tap[%d] measured %g, want kernel ground truth %g", i, got[i].ns, want)
		}
	}
}

// The candidates kept for the merge on benchColdOp (full IPUMK2): each
// filtered leaf is priced once, and its estimate — scaled by 1e-9 — is
// its pruning bound, so a leaf is kept only when no frontier entry
// already beats it on both axes. The measured counts are 29 with the
// shipped fit and 30 with a calibrated one (207 and 198 while a
// hand-derived bound let leaves through that their estimate then
// placed off the frontier); the ceilings are ≈1.1× those.
const (
	benchPricedCeiling     = 32
	benchCalibratedCeiling = 33
)

// TestColdSearchPricedCeiling is the pruning regression gate: the
// default engine (sequential, so the priced count is schedule-
// independent and exact) must never keep more than 32 candidates on
// the reference op with the shipped fit, nor more than 33 with a
// calibrated one.
func TestColdSearchPricedCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("full-device cold search")
	}
	spec := device.IPUMK2()
	for _, tc := range []struct {
		name    string
		cm      *costmodel.Set
		ceiling int
	}{
		{"shipped", testCM(), benchPricedCeiling},
		{"calibrated", calibratedCM(t, spec), benchCalibratedCeiling},
	} {
		s := New(spec, tc.cm, DefaultConstraints(), core.DefaultConfig())
		s.Workers = 1
		r, err := s.searchOp(context.Background(), benchColdOp())
		if err != nil {
			t.Fatal(err)
		}
		if r.Spaces.Priced > tc.ceiling {
			t.Errorf("%s: priced %d candidates, ceiling is %d", tc.name, r.Spaces.Priced, tc.ceiling)
		}
		t.Logf("%s: priced %d", tc.name, r.Spaces.Priced)
	}
}
