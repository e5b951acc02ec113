package costmodel

import (
	"reflect"
	"testing"

	"repro/internal/device"
	"repro/internal/expr"
	"repro/internal/kernel"
)

func mmTask(m, k, n int) kernel.Task {
	return kernel.Task{
		Kind: expr.KindMatMul, M: m, K: k, N: n, KH: 1, KW: 1,
		InBytes:  int64(m*k+k*n) * 2,
		OutBytes: int64(m*n) * 2,
	}
}

func TestSampleRingWrapAndSnapshot(t *testing.T) {
	r := NewSampleRing(4)
	if r.Cap() != 4 {
		t.Fatalf("Cap() = %d, want 4", r.Cap())
	}
	for i := 1; i <= 6; i++ {
		r.Record(mmTask(i, i, i), float64(i))
	}
	if r.Len() != 4 {
		t.Fatalf("Len() = %d after 6 records into cap 4, want 4", r.Len())
	}
	if r.Total() != 6 {
		t.Fatalf("Total() = %d, want 6 (lifetime count survives overwrites)", r.Total())
	}
	snap := r.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("Snapshot() holds %d samples, want 4", len(snap))
	}
	// oldest-first: records 1 and 2 were overwritten by 5 and 6
	for i, want := range []float64{3, 4, 5, 6} {
		if snap[i].Ns != want {
			t.Errorf("Snapshot()[%d].Ns = %g, want %g (oldest-first order)", i, snap[i].Ns, want)
		}
	}
}

func TestSampleRingDropsUnusableMeasurements(t *testing.T) {
	r := NewSampleRing(8)
	r.Record(mmTask(1, 1, 1), 0)
	r.Record(mmTask(1, 1, 1), -5)
	r.Record(mmTask(1, 1, 1), nan())
	r.Record(mmTask(1, 1, 1), inf())
	if r.Len() != 0 || r.Total() != 0 {
		t.Fatalf("ring accepted unusable measurements: Len=%d Total=%d, want 0/0", r.Len(), r.Total())
	}
	r.Record(mmTask(1, 1, 1), 1.5)
	if r.Len() != 1 {
		t.Fatalf("ring rejected a valid measurement")
	}
}

func nan() float64 { z := 0.0; return z / z }
func inf() float64 { z := 0.0; return 1 / z }

// TestRecordMeasuredNormalizesFusedTasks pins the fit-basis contract:
// fused tasks are recorded with the analytic epilogue/mid-stage vector
// term subtracted and the fusion-only fields cleared, so the refit sees
// exactly what the shipped (unfused-profiled) fit was trained on.
func TestRecordMeasuredNormalizesFusedTasks(t *testing.T) {
	spec := device.IPUMK2()
	r := NewSampleRing(4)
	fused := mmTask(64, 128, 32)
	fused.Epilogue = 2
	measured := 5000.0
	r.RecordMeasured(spec, fused, measured)
	snap := r.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("RecordMeasured stored %d samples, want 1", len(snap))
	}
	got := snap[0]
	if got.Task.Epilogue != 0 || got.Task.MidFLOPs != 0 {
		t.Errorf("stored task keeps fusion fields: Epilogue=%d MidFLOPs=%d, want 0/0", got.Task.Epilogue, got.Task.MidFLOPs)
	}
	wantNs := measured - kernel.FusedVectorCycles(spec, fused)/spec.ClockGHz
	if got.Ns != wantNs {
		t.Errorf("stored Ns = %g, want measured minus analytic fused term = %g", got.Ns, wantNs)
	}

	// an unfused task records verbatim
	r2 := NewSampleRing(4)
	plain := mmTask(64, 128, 32)
	r2.RecordMeasured(spec, plain, measured)
	if got := r2.Snapshot()[0]; got.Ns != measured {
		t.Errorf("unfused RecordMeasured altered the measurement: %g, want %g", got.Ns, measured)
	}
}

func TestCalibrateEmptyRing(t *testing.T) {
	set := MustNewSet(device.IPUMK2())
	if _, err := set.Calibrate(NewSampleRing(8), 0); err != ErrNoSamples {
		t.Fatalf("Calibrate over an empty ring: err = %v, want ErrNoSamples", err)
	}
	if _, ok := set.Calibration(); ok {
		t.Fatal("failed Calibrate must not install a calibration")
	}
}

// fillRing seeds a ring with profiled (task, ground-truth ns) pairs for
// the given kinds — the same generator and kernel model the taps feed
// from in production.
func fillRing(spec *device.Spec, kinds []expr.OpKind, perKind int, seed int64) *SampleRing {
	r := NewSampleRing(perKind * len(kinds) * 2)
	for i, kind := range kinds {
		for _, s := range ProfileSamples(spec, kind, perKind, seed+int64(i)) {
			r.Record(s.Task, s.Ns)
		}
	}
	return r
}

// TestRefitWindowDropsStaleSamplesOnWorkloadShift drives a synthetic
// workload shift through the windowed ring: samples feed at most
// DefaultRefitWindows consecutive refits, are then physically dropped,
// and a refit after the shift fits the fresh measurements only — the
// old workload cannot drag the fit once its windows lapse.
func TestRefitWindowDropsStaleSamplesOnWorkloadShift(t *testing.T) {
	spec := device.IPUMK2()
	set := MustNewSet(spec)
	ring := NewSampleRing(256)

	// Phase 1: the old workload measures exactly at the kernel model.
	old := ProfileSamples(spec, expr.KindMatMul, 50, 11)
	for _, s := range old {
		ring.Record(s.Task, s.Ns)
	}
	// The old samples stay eligible for DefaultRefitWindows refits…
	var cal Calibration
	var err error
	for i := 1; i <= DefaultRefitWindows; i++ {
		if cal, err = set.Calibrate(ring, 0); err != nil || cal.Samples != len(old) {
			t.Fatalf("refit %d: samples %d err %v, want all %d old samples", i, cal.Samples, err, len(old))
		}
	}

	// …then age out: with nothing fresh the refit declines (keeping the
	// previous fit) rather than refitting a workload that no longer
	// exists, and the drop is physical.
	if _, err := set.Calibrate(ring, 0); err != ErrNoSamples {
		t.Fatalf("refit %d over lapsed samples: err = %v, want ErrNoSamples", DefaultRefitWindows+1, err)
	}
	if ring.Len() != 0 {
		t.Fatalf("lapsed samples not dropped: ring holds %d", ring.Len())
	}

	// Phase 2: the workload shifts — same kind, new shapes, measuring
	// 2× faster than the shipped fit predicts. The next refit must see
	// only the fresh samples, so its predictions track the shift.
	shift := ProfileSamples(spec, expr.KindMatMul, 60, 23)
	for _, s := range shift {
		ring.Record(s.Task, 0.5*s.Ns)
	}
	if cal, err = set.Calibrate(ring, 0); err != nil {
		t.Fatal(err)
	}
	if cal.Samples != len(shift) {
		t.Fatalf("post-shift refit consumed %d samples, want only the %d fresh ones", cal.Samples, len(shift))
	}
	if cal.RefitKinds != 1 {
		t.Fatalf("post-shift calibration = %+v, want a genuine refit over the fresh samples", cal)
	}
	m := set.Resolve("probe", expr.KindMatMul)
	shipped := MustNewSet(spec).Resolve("probe", expr.KindMatMul)
	probe := shift[len(shift)/2].Task
	ratio := m.Predict(probe) / shipped.Predict(probe)
	// A fit over fresh samples alone lands near 0.5×; old samples still
	// mixed in would pull it toward 1×.
	if ratio < 0.3 || ratio > 0.7 {
		t.Fatalf("post-shift prediction ratio = %.2f, want ~0.5 (fresh samples only)", ratio)
	}
}

// TestCalibrationResidualsPerKind pins the per-kind drift gauge: every
// sampled kind reports its max over-estimate, the worst of them is the
// round's MaxOverEstNs, and unsampled kinds are absent.
func TestCalibrationResidualsPerKind(t *testing.T) {
	spec := device.IPUMK2()
	set := MustNewSet(spec)
	ring := fillRing(spec, []expr.OpKind{expr.KindMatMul, expr.KindReduce}, 100, 9300)
	cal, err := set.Calibrate(ring, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(cal.Residuals) != 2 {
		t.Fatalf("residuals for %d kinds, want 2: %v", len(cal.Residuals), cal.Residuals)
	}
	var worst float64
	for _, kind := range []expr.OpKind{expr.KindMatMul, expr.KindReduce} {
		r, ok := cal.Residuals[kind.String()]
		if !ok || r < 0 {
			t.Fatalf("no non-negative residual for %v: %v", kind, cal.Residuals)
		}
		if r > worst {
			worst = r
		}
	}
	if worst != cal.MaxOverEstNs {
		t.Fatalf("MaxOverEstNs = %g, want the worst per-kind residual %g", cal.MaxOverEstNs, worst)
	}
	if _, ok := cal.Residuals[expr.KindPool.String()]; ok {
		t.Fatal("residual reported for a kind with no samples")
	}
}

// TestCalibrateDeterministic is the race-gate determinism pin: the same
// ring contents and version produce bit-identical θ and the same digest
// on a fresh Set, every time.
func TestCalibrateDeterministic(t *testing.T) {
	spec := device.IPUMK2()
	ring := fillRing(spec, []expr.OpKind{expr.KindMatMul, expr.KindReduce}, 200, 7700)
	calA, errA := MustNewSet(spec).Calibrate(ring, 3)
	calB, errB := MustNewSet(spec).Calibrate(ring, 3)
	if errA != nil || errB != nil {
		t.Fatalf("Calibrate: %v / %v", errA, errB)
	}
	if calA.Digest != calB.Digest || !reflect.DeepEqual(calA, calB) {
		t.Fatalf("same ring, same version, different calibrations:\n%+v\n%+v", calA, calB)
	}
	setA, setB := MustNewSet(spec), MustNewSet(spec)
	setA.Calibrate(ring, 3)
	setB.Calibrate(ring, 3)
	for _, kind := range []expr.OpKind{expr.KindMatMul, expr.KindReduce} {
		ma, mb := setA.Resolve("x", kind).(*Model), setB.Resolve("x", kind).(*Model)
		if ma == setA.Model(kind) || mb == setB.Model(kind) {
			t.Fatalf("%v: no calibrated model installed", kind)
		}
		if len(ma.Theta) != len(mb.Theta) {
			t.Fatalf("%v: θ dimension mismatch", kind)
		}
		for i := range ma.Theta {
			if ma.Theta[i] != mb.Theta[i] {
				t.Fatalf("%v: θ[%d] differs across identical calibrations: %v vs %v", kind, i, ma.Theta[i], mb.Theta[i])
			}
		}
	}
}

func TestCalibrateVersioningAndTag(t *testing.T) {
	spec := device.IPUMK2()
	set := MustNewSet(spec)
	ring := fillRing(spec, []expr.OpKind{expr.KindMatMul}, 100, 4100)
	if tag := (Calibration{}).Tag(); tag != "" {
		t.Fatalf("zero Calibration has tag %q, want empty (uncalibrated)", tag)
	}
	cal1, err := set.Calibrate(ring, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cal1.Version != 1 {
		t.Fatalf("first auto-versioned calibration: version %d, want 1", cal1.Version)
	}
	cal2, err := set.Calibrate(ring, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cal2.Version != 2 {
		t.Fatalf("second auto-versioned calibration: version %d, want 2", cal2.Version)
	}
	if cal1.Tag() == cal2.Tag() {
		t.Fatalf("tags of distinct versions collide: %q", cal1.Tag())
	}
	got, ok := set.Calibration()
	if !ok || !reflect.DeepEqual(got, cal2) {
		t.Fatalf("Set.Calibration() = %+v ok=%t, want the latest round", got, ok)
	}
	// Resolve now serves the calibrated model for the sampled kind and
	// the shipped model elsewhere.
	if set.Resolve("x", expr.KindMatMul) == Predictor(set.Model(expr.KindMatMul)) {
		t.Fatal("Resolve did not return the calibrated model for a sampled kind")
	}
	if set.Resolve("x", expr.KindPool) != Predictor(set.Model(expr.KindPool)) {
		t.Fatal("Resolve returned a calibrated model for a kind with no samples")
	}
	if cal2.Samples != ring.Len() {
		t.Fatalf("calibration consumed %d samples, ring holds %d", cal2.Samples, ring.Len())
	}
}

// TestCalibrateFallbackKeepsShippedTheta pins the degenerate-ring path:
// a ring full of one repeated shape makes the normal matrix singular,
// so the refit keeps the shipped θ (Refit=false) — but the observed
// over-estimate still comes from the measurements.
func TestCalibrateFallbackKeepsShippedTheta(t *testing.T) {
	spec := device.IPUMK2()
	set := MustNewSet(spec)
	ring := NewSampleRing(32)
	task := mmTask(64, 256, 32)
	ns := kernel.Nanoseconds(spec, task)
	for i := 0; i < 16; i++ {
		ring.Record(task, ns)
	}
	cal, err := set.Calibrate(ring, 0)
	if err != nil {
		t.Fatal(err)
	}
	shipped := set.Model(expr.KindMatMul)
	cm := set.Resolve("x", expr.KindMatMul).(*Model)
	if cm == shipped {
		t.Fatal("no calibrated model installed")
	}
	if cal.RefitKinds != 0 {
		t.Fatal("one repeated shape cannot support a genuine refit; RefitKinds must be 0")
	}
	for i := range shipped.Theta {
		if cm.Theta[i] != shipped.Theta[i] {
			t.Fatalf("fallback θ[%d] = %v differs from shipped %v", i, cm.Theta[i], shipped.Theta[i])
		}
	}
	wantOver := shipped.Predict(task) - ns
	if wantOver < 0 {
		wantOver = 0
	}
	if got := cal.Residuals[expr.KindMatMul.String()]; got != wantOver {
		t.Fatalf("fallback over-estimate = %g, want observed over-estimate %g", got, wantOver)
	}
}

// TestCalibratedFloorIsAdmissible pins what Calibrate promises the
// search's compute floor: a calibrated model whose shipped fit declares
// WorkLB declares it too (a refit that would lose it falls back to the
// shipped θ), and on every spec at least one kind keeps it, so the work
// floor engages on the calibrated fit.
func TestCalibratedFloorIsAdmissible(t *testing.T) {
	for _, spec := range []*device.Spec{device.IPUMK2(), device.IPUMK2().Subset(64), device.VIPU(2), device.IPUMK3()} {
		set := MustNewSet(spec)
		ring := NewSampleRing(1 << 15)
		for i, kind := range set.Kinds() {
			for _, seed := range []int64{3000, 4000, 5000, 6000} {
				for _, s := range ProfileSamples(spec, kind, 500, seed+int64(i)) {
					ring.Record(s.Task, s.Ns)
				}
			}
		}
		if _, err := set.Calibrate(ring, 0); err != nil {
			t.Fatal(err)
		}
		floored := 0
		for _, kind := range set.Kinds() {
			cm := set.Resolve("x", kind).(*Model)
			if cm == set.Model(kind) {
				t.Fatalf("%s/%v: no calibrated model despite samples", spec.Name, kind)
			}
			if set.Model(kind).WorkLB() && WorkFloor(cm) == nil {
				t.Fatalf("%s/%v: calibration lost the shipped fit's WorkLB (θ %v)", spec.Name, kind, cm.Theta)
			}
			if WorkFloor(cm) != nil {
				floored++
			}
		}
		if floored == 0 {
			t.Errorf("%s: no calibrated model kept WorkLB — the compute floor would never engage", spec.Name)
		}
	}
}
