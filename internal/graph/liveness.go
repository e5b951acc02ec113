package graph

import "slices"

// Liveness computes the resident activation bytes at each operator: an
// activation lives from the step after its producer runs until its last
// consumer has run. T10 uses this to reuse the memory of precedent
// operators when placing sub-tensors (§4.4); the simulator uses it to
// charge the on-chip footprint of skip connections and other long-lived
// intermediates.
//
// The result is indexed like Ops: LiveBytes[i] is the total bytes of
// activations that must stay resident while op i executes, including
// op i's own inputs but not its output.
func (m *Model) Liveness() []int64 {
	return m.liveness(m.outputBytes())
}

// outputBytes returns every op's output size in bytes.
func (m *Model) outputBytes() []int64 {
	out := make([]int64, len(m.Ops))
	for i := range m.Ops {
		out[i] = m.Ops[i].Expr.TensorBytes(m.Ops[i].Expr.Output)
	}
	return out
}

// liveness is Liveness over precomputed output sizes: each output is
// live over the ops after its producer up to its last consumer, summed
// through a difference array.
func (m *Model) liveness(out []int64) []int64 {
	n := len(m.Ops)
	lastUse := make([]int, n)
	for i := range lastUse {
		lastUse[i] = -1
	}
	for i := range m.Ops {
		for _, src := range m.Ops[i].Sources {
			if src != External {
				lastUse[src] = i
			}
		}
	}
	live := make([]int64, n+1)
	for j, last := range lastUse {
		if last > j {
			live[j+1] += out[j]
			live[last+1] -= out[j]
		}
	}
	for i := 1; i < n; i++ {
		live[i] += live[i-1]
	}
	return live[:n]
}

// ExtraLiveBytes returns, per op, the live activation bytes beyond the
// op's own direct inputs: skip connections and other intermediates that
// must stay resident while the op runs but are not part of its working
// set. The compiler charges these against the active-memory budget —
// the §4.4 liveness analysis that lets successors reuse everything else.
func (m *Model) ExtraLiveBytes() []int64 {
	out := m.outputBytes()
	extra := m.liveness(out)
	for i := range m.Ops {
		srcs := m.Ops[i].Sources
		for k, src := range srcs {
			if src != External && !slices.Contains(srcs[:k], src) {
				extra[i] -= out[src]
			}
		}
		if extra[i] < 0 {
			extra[i] = 0
		}
	}
	return extra
}
