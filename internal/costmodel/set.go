package costmodel

import (
	"fmt"
	"sync"

	"repro/internal/device"
	"repro/internal/expr"
	"repro/internal/kernel"
)

// Set bundles one fitted model per operator type plus the communication
// model and any user-registered custom cost functions. The planner holds
// exactly one Set per target device.
type Set struct {
	Spec   *device.Spec
	models map[expr.OpKind]*Model
	acc    map[expr.OpKind]Accuracy

	// mu guards the mutable maps below: searches read them from a
	// worker pool while registrations and calibration rounds write.
	mu         sync.RWMutex
	custom     map[string]CostFunc
	calibrated map[expr.OpKind]*Model // measurement-refit models (see calibrate.go)
	cal        Calibration            // last calibration round; zero = shipped fit only
}

// trainSamples and evalSamples size the profiling runs; the paper uses
// random shapes per operator type and reports the fit holds across them.
const (
	trainSamples = 300
	evalSamples  = 120
)

// allKinds lists every operator type the compiler plans natively.
var allKinds = []expr.OpKind{
	expr.KindMatMul, expr.KindConv, expr.KindPool,
	expr.KindReduce, expr.KindElementwise, expr.KindGather,
}

// NewSet profiles and fits models for all operator types on the device.
func NewSet(spec *device.Spec) (*Set, error) {
	s := &Set{
		Spec:   spec,
		models: make(map[expr.OpKind]*Model, len(allKinds)),
		acc:    make(map[expr.OpKind]Accuracy, len(allKinds)),
		custom: make(map[string]CostFunc),
	}
	for i, kind := range allKinds {
		train := ProfileSamples(spec, kind, trainSamples, int64(1000+i))
		eval := ProfileSamples(spec, kind, evalSamples, int64(2000+i))
		m, acc, err := FitKind(kind, train, eval)
		if err != nil {
			return nil, err
		}
		s.models[kind] = m
		s.acc[kind] = acc
	}
	return s, nil
}

// MustNewSet is NewSet panicking on error, for tests and examples.
func MustNewSet(spec *device.Spec) *Set {
	s, err := NewSet(spec)
	if err != nil {
		panic(err)
	}
	return s
}

// RegisterCustom installs a user-supplied cost function for the named
// operator; it takes precedence over the fitted model. The function is
// treated as opaque: subtree pruning assumes no compute floor for it.
func (s *Set) RegisterCustom(opName string, f CostFunc) {
	s.mu.Lock()
	s.custom[opName] = f
	s.mu.Unlock()
}

// HasCustom reports whether a custom cost function is registered for
// the named operator. The plan cache keys on it: results priced by a
// custom function must not be served to (or from) the fitted model.
func (s *Set) HasCustom(opName string) bool {
	s.mu.RLock()
	_, ok := s.custom[opName]
	s.mu.RUnlock()
	return ok
}

// Predictor is a pre-resolved per-operator cost predictor: the custom
// registration (if any) or the fitted model for the operator's kind,
// bound once so the search's hot loop pays no map lookup or lock per
// candidate.
type Predictor interface {
	// Predict returns the predicted per-core execution time of the
	// sub-task in nanoseconds.
	Predict(t kernel.Task) float64
}

// WorkLB is the optional Predictor capability the search's subtree
// bounds take their one compute floor from (a predictor without it
// contributes a floor of zero: always safe, never wrong — just blunter
// pruning): a floor on a whole sub-operator's compute, however a plan
// splits it into steps. Take any S equal per-step tasks t whose
// features, times S, each reach agg's (S·f_i(t) ≥ f_i(agg) for every
// feature but the intercept; a convolution's agg.KH = 0 drops its
// InBytes/window feature, for a caller with no bound on the window).
// With (oneStep, perStep) = WorkFloorLine(agg), perStep ≥ 0 and, for
// every steps ≤ S, oneStep + perStep·(steps − 1) never exceeds
// S·Predict(t): the floor is a line in the step count that never falls
// as steps grow, so a caller prices agg once and evaluates the line per
// step count. WorkLB() reports whether the capability holds; fitted and
// calibrated models derive it from their coefficients.
type WorkLB interface {
	WorkLB() bool
	WorkFloorLine(agg kernel.Task) (oneStep, perStep float64)
}

// WorkFloor returns pred's work floor, or nil when it declares none
// (custom cost functions never do).
func WorkFloor(pred Predictor) WorkLB {
	if w, ok := pred.(WorkLB); ok && w.WorkLB() {
		return w
	}
	return nil
}

// funcPredictor adapts a registered CostFunc to the Predictor
// interface.
type funcPredictor struct{ f CostFunc }

func (p funcPredictor) Predict(t kernel.Task) float64 { return p.f(t) }

// Resolve returns the Predictor for the named operator of the given
// kind: a custom registration wins, then a calibrated model from the
// last Calibrate round, then the shipped fit. The resolution is a
// snapshot: a custom function (un)registered or a calibration
// installed after Resolve is not observed by the returned handle — the
// searcher's fingerprint recheck already treats such mid-search swaps
// as uncacheable.
func (s *Set) Resolve(opName string, kind expr.OpKind) Predictor {
	s.mu.RLock()
	f, ok := s.custom[opName]
	cm := s.calibrated[kind]
	s.mu.RUnlock()
	if ok {
		return funcPredictor{f: f}
	}
	if cm != nil {
		return cm
	}
	m, ok := s.models[kind]
	if !ok {
		panic(fmt.Sprintf("costmodel: no model for kind %v", kind))
	}
	return m
}

// Accuracy returns the held-out fit report for one operator type
// (the data behind Fig 8).
func (s *Set) Accuracy(kind expr.OpKind) Accuracy { return s.acc[kind] }

// Kinds returns the operator types with fitted models.
func (s *Set) Kinds() []expr.OpKind { return append([]expr.OpKind(nil), allKinds...) }

// Model returns the fitted model for one operator type (the WorkLB
// property tests exercise the fitted family directly).
func (s *Set) Model(kind expr.OpKind) *Model { return s.models[kind] }
