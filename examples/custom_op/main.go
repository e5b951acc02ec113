// Custom operator + custom cost function (§4.3.1 exposes "an interface
// for users to implement custom cost functions for their custom
// kernels"). We define a fused attention-score operator as a tensor
// expression and give the planner a hand-written cost model for it.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/device"
	"repro/internal/dtype"
	"repro/internal/expr"
	"repro/internal/kernel"
	"repro/t10"
)

func main() {
	spec := device.IPUMK2()

	// A batched attention-score operator: S[b,q,k] += Q[b,q,d] * K[b,d,k]
	// over 128 heads — expressed directly as a tensor expression.
	op := expr.BatchMatMul("fused_scores", 128, 128, 64, 512, dtype.FP16)
	fmt.Println("custom operator:", op)

	// A hand-tuned kernel ships with its own cost function, registered
	// at construction so the compiler stays immutable (its cache keys
	// cover the registration). The function is opaque to the search:
	// it bounds subtrees by their shift and sync floors alone, and the
	// Pareto set is exact regardless.
	compiler, err := t10.New(spec, t10.DefaultOptions(),
		t10.WithCostFunc("fused_scores", func(t kernel.Task) float64 {
			macs := float64(t.M) * float64(t.N) * float64(t.K)
			// our imaginary kernel sustains 48 MACs/cycle with a 2 µs launch
			return 2000 + macs/48/spec.ClockGHz
		}))
	if err != nil {
		log.Fatal(err)
	}

	result, err := compiler.Search(context.Background(), op)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nPareto frontier under the custom cost function:\n")
	for _, c := range result.Pareto {
		fmt.Printf("  Fop=%v  mem=%6.1fKB  est=%8.1fµs\n",
			c.Plan.Fop, float64(c.Est.MemPerCore)/1024, c.Est.TotalNs/1e3)
	}
	best := result.FastestWithin(int64(spec.CoreMemBytes))
	fmt.Printf("\nchosen plan:\n%s\n", best.Plan)
}
