package core

import (
	"math/rand"
	"testing"

	"repro/internal/expr"
	"repro/internal/kernel"
	"repro/internal/mathutil"
	"repro/internal/models"
)

// refTaskFor is taskFor as it stood before the per-expression role
// table: axis roles re-derived on every call from a chain-axis map and
// ContainsAxis / AxisDim scans. Kept as the reference the table is
// checked against.
func refTaskFor(e *expr.Expr, ext []int, stepsPerAxis []int) kernel.Task {
	t := kernel.Task{
		Kind: e.Kind, KH: 1, KW: 1, FLOPsPerElem: e.FLOPsPerPoint,
		Epilogue: e.EpiloguePerPoint, MidFLOPs: e.MidFLOPsPerPoint,
	}
	chain := make(map[int]bool, len(e.ChainAxes))
	for _, a := range e.ChainAxes {
		chain[a] = true
	}
	chainK := 1
	first := e.Inputs[0]
	m, n, k := 1, 1, 1
	elems := int64(1)
	var gatherSteps int
	for a, ax := range e.Axes {
		switch ax.Kind {
		case expr.Spatial:
			elems *= int64(ext[a])
			if expr.ContainsAxis(first, a) {
				m *= ext[a]
			} else {
				n *= ext[a]
			}
		case expr.Reduce:
			if chain[a] {
				chainK *= ext[a]
				continue
			}
			k *= ext[a]
			for _, in := range e.Inputs {
				d := expr.AxisDim(in, a)
				if d >= 0 && in.Dims[d].Compound() {
					if t.KH == 1 {
						t.KH = ext[a]
					} else {
						t.KW = ext[a]
					}
					break
				}
			}
		case expr.Gather:
			gatherSteps = stepsPerAxis[a]
		}
	}
	t.M, t.N, t.K = m, n, k
	t.Elems = elems
	if len(e.ChainAxes) > 0 {
		t.ChainK = chainK
	}
	if e.Kind == expr.KindPool || e.Kind == expr.KindReduce {
		t.FLOPsPerElem = max(e.FLOPsPerPoint, 1) * k
	}
	if e.Kind == expr.KindGather && gatherSteps > 1 {
		t.M = max(1, mathutil.CeilDiv(m, gatherSteps))
	}
	for _, in := range e.Inputs {
		t.InBytes += tileBytesFor(e, in, ext)
	}
	t.OutBytes = tileBytesFor(e, e.Output, ext)
	return t
}

// TestTaskRolesMatchReference checks the role-table task against the
// old per-call derivation, field for field, on every operator of the
// benchmark's five-model set and on the sketch test shapes (fused
// epilogue, chained contraction, gather, pooling) — at the full
// extents, and at random sub-extents and step counts, including
// extent-1 window axes (the KH-then-KW assignment depends on them).
func TestTaskRolesMatchReference(t *testing.T) {
	ops := sketchOps(t)
	for _, name := range []string{"BERT", "ViT", "ResNet", "OPT-1.3B-prefill", "OPT-1.3B-decode"} {
		m, err := models.Build(name, 8)
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range m.Ops {
			ops = append(ops, op.Expr)
		}
	}
	rng := rand.New(rand.NewSource(3))
	for _, e := range ops {
		roles := newTaskRoles(e)
		ext := make([]int, len(e.Axes))
		steps := make([]int, len(e.Axes))
		for iter := 0; iter < 40; iter++ {
			for a, ax := range e.Axes {
				ext[a], steps[a] = ax.Size, 1
				if iter > 0 {
					ext[a] = 1 + rng.Intn(ax.Size)
					if rng.Intn(3) == 0 {
						ext[a] = 1
					}
					steps[a] = 1 + rng.Intn(4)
				}
			}
			want := refTaskFor(e, ext, steps)
			if got := roles.task(ext, steps); got != want {
				t.Fatalf("%s ext=%v steps=%v:\n got %+v\nwant %+v", e.Name, ext, steps, got, want)
			}
		}
	}
}
