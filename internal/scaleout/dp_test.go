package scaleout_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/models"
	"repro/internal/scaleout"
	"repro/t10"
)

// TestDPMatchesEnumeration holds Space.Search to the candidate walk it
// replaced (MatchRef) on the five benchmark models at batch 1 and 8,
// over 2–8 chips of IPU-MK2 and M ∈ {1, 2, 4, 8}: once pricing each
// stage by its simulated time from the t10 compiler, and once by its
// FLOPs under a budget of half the model's weights, which leaves some
// stages infeasible. Under the race detector the ResNet instances at
// 5–8 chips, where the walk is longest, are left to the plain run.
func TestDPMatchesEnumeration(t *testing.T) {
	ctx := context.Background()
	spec := device.IPUMK2()
	micros := []int{1, 2, 4, 8}
	instances, capped, pruned := 0, 0, 0
	for _, batch := range []int{1, 8} {
		for _, name := range []string{"BERT", "ViT", "ResNet", "OPT-1.3B-prefill", "OPT-1.3B-decode"} {
			start := time.Now()
			m, err := models.Build(name, batch)
			if err != nil {
				t.Fatal(err)
			}
			c, err := t10.New(spec, t10.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			// each stage is compiled and simulated once, whatever the
			// chip count and pipeline depth of the space naming it
			type priced struct {
				ns  float64
				err error
			}
			simulated := map[[3]int]priced{}
			params := m.ParamBytes()
			for chips := 2; chips <= 8; chips++ {
				if raceEnabled && name == "ResNet" && chips >= 5 {
					continue
				}
				cfg := scaleout.Config{NChips: chips}
				sp, err := scaleout.NewSpace(m, cfg)
				if err != nil {
					t.Fatal(err)
				}
				sim := func(i int) (any, float64, error) {
					st := sp.Stages[i]
					k := [3]int{st.Start, st.End, st.Split}
					p, ok := simulated[k]
					if !ok {
						exe, err := c.Compile(ctx, st.Model)
						if p.err = err; err == nil {
							p.ns = exe.Simulate().TotalNs
						}
						simulated[k] = p
					}
					return nil, p.ns, p.err
				}
				what := fmt.Sprintf("%s-%d, %d chips", name, batch, chips)
				instances += len(micros)
				if scaleout.MatchRef(t, what+", simulated", sp, cfg, micros, spec.Interconnect, sim) {
					capped += len(micros)
				}
				budget := params / 2 // the whole model does not fit; its halves may
				flop := scaleout.FlopCompile(budget)
				byFlops := func(i int) (any, float64, error) { return flop(sp.Stages[i].Model) }
				scaleout.MatchRef(t, fmt.Sprintf("%s, FLOPs under %d weight bytes", what, budget), sp, cfg, micros, spec.Interconnect, byFlops)
				if res, err := sp.Search(ctx, spec.Interconnect, byFlops); err == nil && res.Infeasible > 0 {
					pruned++
				}
			}
			t.Logf("%s-%d: %d stages simulated, %v", name, batch, len(simulated), time.Since(start))
		}
	}
	t.Logf("%d simulated instances, %d of them capped; %d FLOP-priced spaces with both infeasible and feasible partitions",
		instances, capped, pruned)
	if pruned == 0 {
		t.Error("no weight budget left a candidate infeasible and another feasible")
	}
}
