package costmodel

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/device"
	"repro/internal/expr"
	"repro/internal/kernel"
)

// This file is the measurement side of the cost model: the search
// records (kernel task → measured per-step time) pairs of the plans it
// keeps into a bounded SampleRing, and Set.Calibrate refits the shipped
// regression over them — the measurement→refit→redeploy loop of the
// NeuroScalar lineage (fast learned cycle prediction, continuously
// reconciled against observed executions).

// DefaultRingSize bounds a SampleRing built with capacity <= 0: large
// enough to cover every operator of a big model several times over,
// small enough that a refit over the full ring is instantaneous.
const DefaultRingSize = 4096

// DefaultRefitWindows is how many refit windows a sample stays eligible
// for: each Set.Calibrate call closes one window, and samples recorded
// more than this many windows ago are dropped before the fit — so a
// workload shift refits on fresh samples only instead of averaging the
// old workload in forever.
const DefaultRefitWindows = 4

// ErrNoSamples is returned by Set.Calibrate when the ring holds no
// samples yet — the caller keeps the shipped fit and tries again later.
var ErrNoSamples = errors.New("costmodel: calibration ring holds no samples")

// SampleRing is the bounded measurement buffer of the calibration
// loop. Writers (the simulator tap, the post-search hook) call Record
// concurrently from compile goroutines; Calibrate snapshots the ring
// under the same lock. When full, the oldest sample is overwritten —
// the fit tracks recent workload shapes, not history.
type SampleRing struct {
	mu    sync.Mutex
	buf   []Sample
	tags  []uint64 // refit window each buf entry was recorded in
	next  int
	n     int
	total uint64
	win   uint64 // current refit window; SnapshotRefit advances it
}

// NewSampleRing returns a ring holding at most capacity samples
// (DefaultRingSize when capacity <= 0).
func NewSampleRing(capacity int) *SampleRing {
	if capacity <= 0 {
		capacity = DefaultRingSize
	}
	return &SampleRing{buf: make([]Sample, capacity), tags: make([]uint64, capacity)}
}

// Record appends one measured sample, overwriting the oldest once the
// ring is full. Non-positive and non-finite measurements are dropped:
// they carry no timing information and would poison the 1/Ns² weights
// of the refit.
func (r *SampleRing) Record(t kernel.Task, measuredNs float64) {
	if measuredNs <= 0 || math.IsNaN(measuredNs) || math.IsInf(measuredNs, 0) {
		return
	}
	r.mu.Lock()
	r.buf[r.next] = Sample{Task: t, Ns: measuredNs}
	r.tags[r.next] = r.win
	r.next = (r.next + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
	r.total++
	r.mu.Unlock()
}

// RecordMeasured normalizes an end-to-end measured per-step time onto
// the fitted feature basis before recording it. Fitted models are
// profiled on unfused tasks — core.EstimateWith adds the fused
// epilogue/mid-stage vector work analytically on top of Predict — so
// the identical analytic term is subtracted here and the fusion-only
// fields cleared; recording the raw fused measurement would teach the
// model to charge work the estimator already adds back.
func (r *SampleRing) RecordMeasured(spec *device.Spec, t kernel.Task, measuredNs float64) {
	if t.Epilogue != 0 || t.MidFLOPs != 0 {
		measuredNs -= kernel.FusedVectorCycles(spec, t) / spec.ClockGHz
		t.Epilogue, t.MidFLOPs = 0, 0
	}
	r.Record(t, measuredNs)
}

// Len returns the number of samples currently held (≤ Cap).
func (r *SampleRing) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// Cap returns the ring's capacity.
func (r *SampleRing) Cap() int { return len(r.buf) }

// Total returns the lifetime count of samples recorded, including those
// already overwritten — the gauge refit triggers compare against.
func (r *SampleRing) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Snapshot returns the held samples oldest-first. The copy is the
// refit's input: the same ring contents always produce the same slice,
// so a calibration over it is deterministic.
func (r *SampleRing) Snapshot() []Sample {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Sample, 0, r.n)
	if r.n == len(r.buf) {
		out = append(out, r.buf[r.next:]...)
		out = append(out, r.buf[:r.next]...)
	} else {
		out = append(out, r.buf[:r.n]...)
	}
	return out
}

// SnapshotRefit is the refit's windowed input: it drops every sample
// recorded more than DefaultRefitWindows refit windows ago, returns
// the survivors oldest-first, and advances the refit window — each
// call closes one window. Set.Calibrate goes through here, so a
// sample feeds at most DefaultRefitWindows consecutive refits before
// aging out; after a workload shift the stale shapes stop influencing
// the fit within that many rounds.
func (r *SampleRing) SnapshotRefit() []Sample {
	r.mu.Lock()
	defer r.mu.Unlock()
	// The last DefaultRefitWindows windows at the moment of this refit
	// are win, win-1, ..., win-DefaultRefitWindows+1.
	thresh := int64(r.win) - DefaultRefitWindows + 1

	// Walk oldest-first, compacting survivors back into the ring so the
	// drop is physical: Len shrinks and overwritten slots free up.
	start := 0
	if r.n == len(r.buf) {
		start = r.next
	}
	kept := make([]Sample, 0, r.n)
	tags := make([]uint64, 0, r.n)
	for i := 0; i < r.n; i++ {
		j := (start + i) % len(r.buf)
		if int64(r.tags[j]) >= thresh {
			kept = append(kept, r.buf[j])
			tags = append(tags, r.tags[j])
		}
	}
	copy(r.buf, kept)
	copy(r.tags, tags)
	r.n = len(kept)
	r.next = r.n % len(r.buf)
	r.win++

	out := make([]Sample, len(kept))
	copy(out, kept)
	return out
}

// Calibration summarizes one Calibrate round — the /stats gauges and
// the fingerprint component.
type Calibration struct {
	// Version is the fit version, starting at 1; 0 means uncalibrated.
	Version int
	// Samples is how many ring samples the round consumed.
	Samples int
	// RefitKinds counts operator kinds whose θ was genuinely refit
	// (the rest kept the shipped θ).
	RefitKinds int
	// MaxOverEstNs is the largest observed over-estimate across kinds.
	MaxOverEstNs float64
	// Digest is a short content hash of every calibrated θ and
	// over-estimate, so two distinct refits can never share a
	// fingerprint.
	Digest string
	// Residuals maps operator kind (expr.OpKind.String()) to the fit's
	// observed maximum over-estimate in ns for that kind — the per-kind
	// drift gauge an operator watches in /stats to see which kernel
	// model is coming apart. Read-only after Calibrate returns; the
	// digest already covers these values, so they do not hash
	// separately.
	Residuals map[string]float64
}

// Tag renders the fingerprint component: empty when uncalibrated, else
// a version-plus-content-digest string. Two calibrations with the same
// tag price identically, so cached plans can be shared between them.
func (c Calibration) Tag() string {
	if c.Version == 0 {
		return ""
	}
	return fmt.Sprintf("v%d-%s", c.Version, c.Digest)
}

// Calibrate refits the Set's models over the ring's samples and
// installs the result: Resolve returns the refit *Model for every kind
// that had samples (custom registrations still win), and the Set's
// Calibration reports the round — which kinds were genuinely refit and
// each kind's observed over-estimate. Kinds without samples keep the
// shipped fit unchanged.
//
// Per kind, the refit runs the same weighted least squares as the
// shipped fit (FitKind) over the ring samples in ring order; a
// singular normal matrix (too few distinct shapes — common early in a
// serving run, when the ring holds one model's handful of operators)
// or a refit that loses the shipped fit's WorkLB capability falls back
// to the shipped θ, because the search's compute floor is worth more
// than a marginally tighter fit. Either way the observed maximum
// over-estimate is derived from the measurements.
//
// version <= 0 means "next": one past the Set's current fit version.
// The same ring contents and version always produce bit-identical
// models and the same Digest — calibration is deterministic.
func (s *Set) Calibrate(ring *SampleRing, version int) (Calibration, error) {
	samples := ring.SnapshotRefit()
	if len(samples) == 0 {
		return Calibration{}, ErrNoSamples
	}
	byKind := make(map[expr.OpKind][]Sample)
	for _, sm := range samples {
		byKind[sm.Task.Kind] = append(byKind[sm.Task.Kind], sm)
	}
	if version <= 0 {
		s.mu.RLock()
		version = s.cal.Version + 1
		s.mu.RUnlock()
	}

	calibrated := make(map[expr.OpKind]*Model, len(byKind))
	cal := Calibration{
		Version:   version,
		Samples:   len(samples),
		Residuals: make(map[string]float64, len(byKind)),
	}
	h := sha256.New()
	hashInt := func(v int64) { binary.Write(h, binary.LittleEndian, v) }
	hashInt(int64(version))
	for _, kind := range allKinds { // fixed order: the digest must be stable
		ks := byKind[kind]
		if len(ks) == 0 {
			continue
		}
		base := s.models[kind]
		m, _, err := FitKind(kind, ks, nil)
		refit := err == nil
		if refit && base.WorkLB() && !m.WorkLB() {
			refit = false
		}
		if !refit {
			m = &Model{Kind: kind, Theta: append([]float64(nil), base.Theta...)}
		} else {
			cal.RefitKinds++
		}
		var over float64
		for _, sm := range ks {
			if d := m.Predict(sm.Task) - sm.Ns; d > over {
				over = d
			}
		}
		calibrated[kind] = m
		cal.Residuals[kind.String()] = over
		if over > cal.MaxOverEstNs {
			cal.MaxOverEstNs = over
		}
		hashInt(int64(kind))
		for _, th := range m.Theta {
			hashInt(int64(math.Float64bits(th)))
		}
		hashInt(int64(math.Float64bits(over)))
	}
	cal.Digest = hex.EncodeToString(h.Sum(nil))[:12]

	s.mu.Lock()
	s.calibrated = calibrated
	s.cal = cal
	s.mu.Unlock()
	return cal, nil
}

// Calibration returns the Set's last calibration round; ok is false
// while the Set still prices with the shipped fit only.
func (s *Set) Calibration() (Calibration, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.cal, s.cal.Version > 0
}
