// Package interop implements T10's holistic inter-operator memory
// reconciliation (§4.3.2, Algorithm 1).
//
// Every operator holds two plans: an idle plan, storing its weights
// while other operators run, and an active plan used during execution.
// Transitioning idle→active (the "plan setup" phase) re-arranges weight
// partitions over the inter-core links, so keeping a larger (closer to
// active) idle layout trades idle memory for setup time. The greedy
// reconciliation starts from minimum-memory idle plans everywhere and
// repeatedly upgrades the operator with the best setup-time-saved per
// idle-byte-added ratio (−ΔT_S/ΔM_I), re-fitting every active plan to
// the remaining memory after each move.
package interop

import (
	"fmt"

	"repro/internal/device"
	"repro/internal/graph"
	"repro/internal/search"
)

// OpPlans couples one operator with its intra-operator search result.
type OpPlans struct {
	Op     *graph.Op
	Result *search.Result

	// LiveBytesPerCore is the per-core footprint of activations that
	// must stay resident while this operator runs but are not among its
	// own inputs (skip connections; §4.4 liveness analysis). It shrinks
	// the active-memory budget.
	LiveBytesPerCore int64
}

// repeat returns how many times the op executes per inference.
func (o *OpPlans) repeat() float64 {
	if o.Op.Repeat <= 0 {
		return 1
	}
	return float64(o.Op.Repeat)
}

// Assignment is the reconciliation outcome for one operator.
type Assignment struct {
	Idle   *search.Candidate
	Active *search.Candidate

	// IdleMemPerCore is the per-core weight footprint in the idle layout.
	IdleMemPerCore int64

	// SetupNs is the idle→active transition cost charged at every
	// execution of the operator.
	SetupNs float64

	// ExecNs is the active plan's estimated execution time.
	ExecNs float64
}

// TracePoint records one step of the greedy search (the dots of Fig 20).
type TracePoint struct {
	IdleMemPerCore int64
	TotalNs        float64
}

// Schedule is the end-to-end plan selection.
type Schedule struct {
	Assignments []Assignment
	// TotalNs is Σ repeat·(setup + exec) over all operators.
	TotalNs float64
	// IdleMemPerCore is the Σ of idle weight footprints.
	IdleMemPerCore int64
	Trace          []TracePoint
}

// InfeasibleError reports that no plan assignment fits on-chip — the ✖
// marks of Fig 12.
type InfeasibleError struct {
	Op     string
	Budget int64
}

func (e *InfeasibleError) Error() string {
	return fmt.Sprintf("interop: operator %s has no plan fitting %d bytes/core", e.Op, e.Budget)
}

// movedBytes is the one setup formula: the per-core weight bytes that
// must move to re-lay a weight from wi idle bytes into wa active bytes
// of a different plan. The active weight partition is gathered over the
// links, with half of the overlapping bytes assumed already local.
func movedBytes(wi, wa int64) int64 {
	moved := wa - min(wi, wa)/2
	if moved <= 0 {
		return 0
	}
	return moved
}

// SetupMovedBytes returns the per-core weight bytes that must move to
// transition the operator from the idle to the active layout: zero when
// the layouts coincide, movedBytes of their weight footprints otherwise.
func SetupMovedBytes(op *OpPlans, idle, active *search.Candidate) int64 {
	if idle == active {
		return 0
	}
	w := op.Op.WeightInputs
	return movedBytes(idle.Plan.MemOfTensors(w), active.Plan.MemOfTensors(w))
}

// ReconcileBaseline evaluates only Algorithm 1's starting point — every
// operator idles in its minimum-memory plan and no idle layout is ever
// upgraded. This is the ablation for the inter-operator optimization.
func ReconcileBaseline(spec *device.Spec, ops []OpPlans, memPerCore int64) (*Schedule, error) {
	return reconcile(spec, ops, memPerCore, false)
}

// Reconcile runs Algorithm 1 over the operators with the given per-core
// memory capacity.
func Reconcile(spec *device.Spec, ops []OpPlans, memPerCore int64) (*Schedule, error) {
	return reconcile(spec, ops, memPerCore, true)
}

// opState is one operator's standing in the greedy loop. Plans are
// indices into its Result.Pareto, so index equality is plan identity.
type opState struct {
	result *search.Result
	// w holds every Pareto plan's per-core weight bytes (WeightInputs
	// index plan tensors directly: a plan's tensors are the op's inputs,
	// then its output)
	w      []int64
	repeat float64
	live   int64

	idle, active int
	setupNs      float64 // of (idle, active)

	// up is the best idle upgrade against (idle, active): the first
	// Pareto plan with the largest setup-saved per byte-added ratio
	// upRatio, adding upDM idle bytes; -1 when none saves time. It is
	// stale once idle or active moved (upFresh false).
	up      int
	upDM    int64
	upRatio float64
	upFresh bool

	bestIdle, bestActive int // of the best schedule so far
}

// setup prices re-laying plan idle into plan active.
func (s *opState) setup(spec *device.Spec, idle, active int) float64 {
	if idle == active {
		return 0
	}
	moved := movedBytes(s.w[idle], s.w[active])
	if moved == 0 {
		return 0
	}
	return float64(moved)/spec.LinkBytesPerNs() + spec.ExchangeStartupNs + spec.SyncNs
}

// findUpgrade rescans the frontier for the best idle upgrade that keeps
// every idle layout within memPerCore.
func (s *opState) findUpgrade(spec *device.Spec, idleTotal, memPerCore int64) {
	s.up, s.upDM, s.upRatio, s.upFresh = -1, 0, 0, true
	cur := s.w[s.idle]
	for p, cm := range s.w {
		if cm <= cur {
			continue
		}
		dM := cm - cur
		if idleTotal+dM > memPerCore {
			continue
		}
		dT := s.repeat * (s.setupNs - s.setup(spec, p, s.active))
		if dT <= 0 {
			continue
		}
		if ratio := dT / float64(dM); ratio > s.upRatio {
			s.up, s.upDM, s.upRatio = p, dM, ratio
		}
	}
}

// reconcile is Algorithm 1 on integers: every plan's weight bytes are
// computed once, into one flat slice, and a greedy step re-derives only
// what it changed. Moving op j's idle layout up by dM bytes leaves j's
// active budget as it was and shrinks every other op's by dM, so an
// active plan that still fits is still the first fastest within its
// budget, and a cached upgrade that still fits is still the first best
// ratio within the shrunken memory; only the ops whose cached choice no
// longer fits are rescanned. Totals are still summed over every op, in
// op order, on every step: float addition is not associative.
func reconcile(spec *device.Spec, ops []OpPlans, memPerCore int64, greedy bool) (*Schedule, error) {
	n := len(ops)
	if n == 0 {
		return &Schedule{}, nil
	}
	points := 0
	for i := range ops {
		points += len(ops[i].Result.Pareto)
	}
	w := make([]int64, points)
	st := make([]opState, n)

	// line 2-3: start from the memory-efficient plan (Pareto[0],
	// MinMemory) everywhere
	var idleTotal int64
	for i := range ops {
		op, s := &ops[i], &st[i]
		s.result = op.Result
		pareto := s.result.Pareto
		if len(pareto) == 0 {
			return nil, &InfeasibleError{Op: op.Op.Name, Budget: memPerCore}
		}
		s.w, w = w[:len(pareto)], w[len(pareto):]
		for p := range pareto {
			s.w[p] = pareto[p].Plan.MemOfTensors(op.Op.WeightInputs)
		}
		s.repeat, s.live, s.active = op.repeat(), op.LiveBytesPerCore, -1
		idleTotal += s.w[0]
	}

	sched := &Schedule{}
	for steps := 0; ; steps++ {
		var total float64
		for i := range st {
			// line 8: fastest active plan that fits next to everyone
			// else's idle weights and the live skip activations (the
			// operator's own idle space is reclaimed while it runs)
			s := &st[i]
			budget := memPerCore - (idleTotal - s.w[s.idle]) - s.live
			if s.active < 0 || s.result.Pareto[s.active].Est.MemPerCore > budget {
				if s.active = s.result.FastestIndexWithin(budget); s.active < 0 {
					if steps == 0 {
						return nil, &InfeasibleError{Op: ops[i].Op.Name, Budget: budget}
					}
					return sched.assign(spec, st), nil
				}
				s.setupNs, s.upFresh = s.setup(spec, s.idle, s.active), false
			}
			total += s.repeat * (s.setupNs + s.result.Pareto[s.active].Est.TotalNs)
		}
		sched.Trace = append(sched.Trace, TracePoint{IdleMemPerCore: idleTotal, TotalNs: total})
		if steps == 0 || total < sched.TotalNs {
			sched.TotalNs, sched.IdleMemPerCore = total, idleTotal
			for i := range st {
				st[i].bestIdle, st[i].bestActive = st[i].idle, st[i].active
			}
		}
		if !greedy {
			break
		}

		// line 13: the operator whose next idle plan saves the most setup
		// time per added idle byte — the first op with the strictly
		// largest ratio, which is what one flat scan over every op's
		// frontier picks
		bestOp, bestRatio := -1, 0.0
		for i := range st {
			s := &st[i]
			if !s.upFresh || (s.up >= 0 && idleTotal+s.upDM > memPerCore) {
				s.findUpgrade(spec, idleTotal, memPerCore)
			}
			if s.up >= 0 && s.upRatio > bestRatio {
				bestOp, bestRatio = i, s.upRatio
			}
		}
		if bestOp < 0 {
			break
		}
		s := &st[bestOp]
		idleTotal += s.upDM
		s.idle = s.up
		s.setupNs, s.upFresh = s.setup(spec, s.idle, s.active), false
	}
	return sched.assign(spec, st), nil
}

// assign builds the best step's assignments.
func (sched *Schedule) assign(spec *device.Spec, st []opState) *Schedule {
	sched.Assignments = make([]Assignment, len(st))
	for i := range st {
		s := &st[i]
		active := &s.result.Pareto[s.bestActive]
		sched.Assignments[i] = Assignment{
			Idle: &s.result.Pareto[s.bestIdle], Active: active,
			IdleMemPerCore: s.w[s.bestIdle],
			SetupNs:        s.setup(spec, s.bestIdle, s.bestActive),
			ExecNs:         active.Est.TotalNs,
		}
	}
	return sched
}
