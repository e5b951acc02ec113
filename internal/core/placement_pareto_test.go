package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/device"
	"repro/internal/models"
	"repro/internal/plancache"
	"repro/internal/search"
)

// TestPlacementMatchesReferenceOnParetoPlans holds the integer-slot
// placement proof to the oracle on the plans compiles actually lower:
// every Pareto plan of the five benchmark models' operators at batch 8
// (BERT, ViT, ResNet, OPT-1.3B prefill and decode), on the full MK2 and
// on a 64-core slice of it (where some operators fit no plan and are
// skipped), and every mutant of each.
func TestPlacementMatchesReferenceOnParetoPlans(t *testing.T) {
	for _, spec := range []*device.Spec{device.IPUMK2(), device.IPUMK2().Subset(64)} {
		cm, err := costmodel.NewSet(spec)
		if err != nil {
			t.Fatal(err)
		}
		s := search.New(spec, cm, search.DefaultConstraints(), core.DefaultConfig())
		searched := map[plancache.Key]bool{}
		plans, accepted, rejected, infeasible := 0, 0, 0, 0
		for _, name := range []string{"BERT", "ViT", "ResNet", "OPT-1.3B-prefill", "OPT-1.3B-decode"} {
			m, err := models.Build(name, 8)
			if err != nil {
				t.Fatal(err)
			}
			for _, op := range m.Ops {
				key := s.Key(op.Expr)
				if searched[key] {
					continue
				}
				searched[key] = true
				r, err := s.SearchOp(op.Expr)
				if err != nil {
					infeasible++
					continue
				}
				for _, c := range r.Pareto {
					plans++
					if core.CheckPlacement(c.Plan) != nil || core.RefValidatePlacement(c.Plan) != nil {
						t.Fatalf("%s/%s: Pareto plan fails placement: %v / %v\n%s", name, op.Name,
							core.CheckPlacement(c.Plan), core.RefValidatePlacement(c.Plan), c.Plan)
					}
					for _, q := range core.PlacementMutants(c.Plan) {
						got, want := core.CheckPlacement(q), core.RefValidatePlacement(q)
						if (got == nil) != (want == nil) {
							t.Fatalf("%s/%s mutant Fop=%v: checkPlacement = %v, oracle = %v\n%s",
								name, op.Name, q.Fop, got, want, q)
						}
						if got == nil {
							accepted++
						} else {
							rejected++
						}
					}
				}
			}
		}
		t.Logf("%s: %d Pareto plans (%d ops infeasible); mutants: %d accepted, %d rejected",
			spec.Name, plans, infeasible, accepted, rejected)
		if rejected == 0 {
			t.Fatalf("%s: no mutant was rejected — the comparison is vacuous", spec.Name)
		}
	}
}
