package interop

import (
	"repro/internal/device"
	"repro/internal/search"
)

// The reference below is the greedy loop as it read before the loop ran
// on precomputed weight bytes: it re-derives every candidate's weight
// footprint and setup time from its Plan on every iteration and
// re-fits every active plan from scratch. It is the oracle that
// reconcile must reproduce exactly — same assignment pointers, trace,
// TotalNs bits and errors.

func refIdleMem(op *OpPlans, c *search.Candidate) int64 {
	return c.Plan.MemOfTensors(op.Op.WeightInputs)
}

func refSetupMovedBytes(op *OpPlans, idle, active *search.Candidate) int64 {
	if idle == active {
		return 0
	}
	wa := active.Plan.MemOfTensors(op.Op.WeightInputs)
	wi := refIdleMem(op, idle)
	overlap := wi
	if wa < overlap {
		overlap = wa
	}
	moved := wa - overlap/2
	if moved <= 0 {
		return 0
	}
	return moved
}

func refSetupNs(spec *device.Spec, op *OpPlans, idle, active *search.Candidate) float64 {
	moved := refSetupMovedBytes(op, idle, active)
	if moved == 0 {
		return 0
	}
	return float64(moved)/spec.LinkBytesPerNs() + spec.ExchangeStartupNs + spec.SyncNs
}

func refReconcile(spec *device.Spec, ops []OpPlans, memPerCore int64, greedy bool) (*Schedule, error) {
	n := len(ops)
	if n == 0 {
		return &Schedule{}, nil
	}
	// line 2-3: start from the memory-efficient plan everywhere
	idle := make([]*search.Candidate, n)
	var idleTotal int64
	for i := range ops {
		idle[i] = ops[i].Result.MinMemory()
		if idle[i] == nil {
			return nil, &InfeasibleError{Op: ops[i].Op.Name, Budget: memPerCore}
		}
		idleTotal += refIdleMem(&ops[i], idle[i])
	}

	evaluate := func(idle []*search.Candidate, idleTotal int64) ([]Assignment, float64, error) {
		asg := make([]Assignment, n)
		var total float64
		for i := range ops {
			// line 8: fastest active plan that fits next to everyone
			// else's idle weights and the live skip activations (the
			// operator's own idle space is reclaimed while it runs)
			budget := memPerCore - (idleTotal - refIdleMem(&ops[i], idle[i])) - ops[i].LiveBytesPerCore
			active := ops[i].Result.FastestWithin(budget)
			if active == nil {
				return nil, 0, &InfeasibleError{Op: ops[i].Op.Name, Budget: budget}
			}
			su := refSetupNs(spec, &ops[i], idle[i], active)
			asg[i] = Assignment{
				Idle: idle[i], Active: active,
				IdleMemPerCore: refIdleMem(&ops[i], idle[i]),
				SetupNs:        su,
				ExecNs:         active.Est.TotalNs,
			}
			total += ops[i].repeat() * (su + active.Est.TotalNs)
		}
		return asg, total, nil
	}

	best := &Schedule{TotalNs: -1}
	for {
		asg, total, err := evaluate(idle, idleTotal)
		if err != nil {
			if best.TotalNs < 0 {
				return nil, err
			}
			break
		}
		best.Trace = append(best.Trace, TracePoint{IdleMemPerCore: idleTotal, TotalNs: total})
		if best.TotalNs < 0 || total < best.TotalNs {
			best.TotalNs = total
			best.Assignments = asg
			best.IdleMemPerCore = idleTotal
		}
		if !greedy {
			break
		}

		// line 13: the operator whose next idle plan saves the most setup
		// time per added idle byte
		bestOp, bestPlan := -1, (*search.Candidate)(nil)
		bestRatio := 0.0
		var bestDelta int64
		for i := range ops {
			cur := refIdleMem(&ops[i], idle[i])
			curSetup := refSetupNs(spec, &ops[i], idle[i], asg[i].Active)
			for pi := range ops[i].Result.Pareto {
				cand := &ops[i].Result.Pareto[pi]
				cm := refIdleMem(&ops[i], cand)
				if cm <= cur {
					continue
				}
				dM := cm - cur
				if idleTotal+dM > memPerCore {
					continue
				}
				dT := ops[i].repeat() * (curSetup - refSetupNs(spec, &ops[i], cand, asg[i].Active))
				if dT <= 0 {
					continue
				}
				if ratio := dT / float64(dM); ratio > bestRatio {
					bestRatio, bestOp, bestPlan, bestDelta = ratio, i, cand, dM
				}
			}
		}
		if bestOp < 0 {
			break
		}
		idle[bestOp] = bestPlan
		idleTotal += bestDelta
	}
	if best.TotalNs < 0 {
		return nil, &InfeasibleError{Op: ops[0].Op.Name, Budget: memPerCore}
	}
	return best, nil
}
