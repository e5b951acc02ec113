package graph_test

import (
	"slices"
	"testing"

	"repro/internal/expr"
	"repro/internal/graph"
	"repro/internal/models"
)

// The reference is the liveness analysis as it read before it ran on
// precomputed output sizes: every output's bytes re-derived from a
// freshly built shape, O(n²) times, and a map per op for its distinct
// sources.

func refTensorBytes(e *expr.Expr, t expr.TensorRef) int64 {
	sizes := make([]int, len(e.Axes))
	for i, a := range e.Axes {
		sizes[i] = a.Size
	}
	n := int64(1)
	for _, d := range t.Dims {
		n *= int64(e.DimSize(d, sizes))
	}
	return n * int64(t.Elem.Size())
}

func refLiveness(m *graph.Model) []int64 {
	lastUse := make([]int, len(m.Ops))
	for i := range lastUse {
		lastUse[i] = -1
	}
	for i := range m.Ops {
		for _, src := range m.Ops[i].Sources {
			if src != graph.External {
				lastUse[src] = i
			}
		}
	}
	live := make([]int64, len(m.Ops))
	for i := range m.Ops {
		var bytes int64
		for j := 0; j < i; j++ {
			if lastUse[j] >= i {
				bytes += refTensorBytes(m.Ops[j].Expr, m.Ops[j].Expr.Output)
			}
		}
		live[i] = bytes
	}
	return live
}

func refExtraLiveBytes(m *graph.Model) []int64 {
	live := refLiveness(m)
	extra := make([]int64, len(m.Ops))
	for i := range m.Ops {
		own := int64(0)
		seen := make(map[int]bool)
		for _, src := range m.Ops[i].Sources {
			if src == graph.External || seen[src] {
				continue
			}
			seen[src] = true
			own += refTensorBytes(m.Ops[src].Expr, m.Ops[src].Expr.Output)
		}
		extra[i] = live[i] - own
		if extra[i] < 0 {
			extra[i] = 0
		}
	}
	return extra
}

// TestLivenessMatchesReference compares Liveness, ExtraLiveBytes and
// every tensor's size with the reference on every
// registered model at batch 1 and 8, unfused and under the default
// fusion rules, and pins that ExtraLiveBytes allocates a fixed number
// of times, not once per op.
func TestLivenessMatchesReference(t *testing.T) {
	names := models.Table2()
	for _, cfg := range models.LLMConfigs() {
		names = append(names, cfg.Name, cfg.Name+"-prefill", cfg.Name+"-decode")
	}
	fused := 0
	for _, batch := range []int{1, 8} {
		for _, name := range names {
			m, err := models.Build(name, batch)
			if err != nil {
				t.Fatal(err)
			}
			fg, err := graph.Fuse(m, graph.DefaultRules())
			if err != nil {
				t.Fatal(err)
			}
			if len(fg.Fused.Ops) < len(m.Ops) {
				fused++
			}
			for _, g := range []*graph.Model{m, fg.Fused} {
				for i := range g.Ops {
					e := g.Ops[i].Expr
					for _, ref := range append(slices.Clip(e.Inputs), e.Output) {
						if got, want := e.TensorBytes(ref), refTensorBytes(e, ref); got != want {
							t.Fatalf("%s-%d %s: %s is %d bytes, reference %d", name, batch, e.Name, ref.Name, got, want)
						}
					}
				}
				if got, want := g.Liveness(), refLiveness(g); !slices.Equal(got, want) {
					t.Fatalf("%s-%d (%d ops): Liveness %v, reference %v", name, batch, len(g.Ops), got, want)
				}
				if got, want := g.ExtraLiveBytes(), refExtraLiveBytes(g); !slices.Equal(got, want) {
					t.Fatalf("%s-%d (%d ops): ExtraLiveBytes %v, reference %v", name, batch, len(g.Ops), got, want)
				}
				if allocs := testing.AllocsPerRun(5, func() { g.ExtraLiveBytes() }); allocs > 3 {
					t.Errorf("%s-%d (%d ops): ExtraLiveBytes allocates %.0f times, want ≤ 3", name, batch, len(g.Ops), allocs)
				}
			}
		}
	}
	if fused == 0 {
		t.Fatal("no model was changed by fusion")
	}
}
