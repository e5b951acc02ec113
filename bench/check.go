package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/codegen"
	"repro/internal/device"
	"repro/internal/dtype"
	"repro/internal/expr"
	"repro/internal/search"
	"repro/t10"
)

// digest is FNV-1a over the decisions that make up a plan; formatting
// and hashing libraries would cost more than a warm compile.
type digest uint64

func newDigest() digest { return 14695981039346656037 }

func (d *digest) word(x uint64) {
	for i := 0; i < 8; i++ {
		*d = (*d ^ digest(x&0xff)) * 1099511628211
		x >>= 8
	}
}

func (d *digest) ints(xs []int) {
	d.word(uint64(len(xs)))
	for _, x := range xs {
		d.word(uint64(x))
	}
}

func (d *digest) str(s string) {
	d.word(uint64(len(s)))
	for i := 0; i < len(s); i++ {
		d.word(uint64(s[i]))
	}
}

// candidate folds one priced plan in: operator partition, per-tensor
// temporal factors, footprint.
func (d *digest) candidate(c *search.Candidate) {
	d.ints(c.Plan.Fop)
	for ti := range c.Plan.Tensors {
		d.ints(c.Plan.Tensors[ti].Ft)
	}
	d.word(uint64(c.Est.MemPerCore))
}

// exeDigest identifies a compiled model's plan selection: per operator
// its name, the active and idle plans and the idle footprint.
func exeDigest(exe *t10.Executable) uint64 {
	d := newDigest()
	for i := range exe.Model.Ops {
		asg := &exe.Schedule.Assignments[i]
		d.str(exe.Model.Ops[i].Name)
		d.candidate(asg.Active)
		d.candidate(asg.Idle)
		d.word(uint64(asg.IdleMemPerCore))
	}
	return uint64(d)
}

// resultDigest identifies one operator search's Pareto set.
func resultDigest(r *search.Result) uint64 {
	d := newDigest()
	d.str(r.Op)
	for i := range r.Pareto {
		d.candidate(&r.Pareto[i])
	}
	return uint64(d)
}

// shardedDigest identifies a partition and every stage's plan selection.
func shardedDigest(se *t10.ShardedExecutable) uint64 {
	d := newDigest()
	d.word(uint64(se.Partition.Chips))
	for i := range se.Partition.Stages {
		st := &se.Partition.Stages[i]
		d.ints([]int{st.Start, st.End, st.Split})
		d.word(exeDigest(se.Stages[i]))
	}
	return uint64(d)
}

// functionalOps are small enough to execute element by element on a
// 16-core subset, and cover a plain matmul, a reduction split across
// cores, a batched matmul, a convolution and an elementwise operator.
func functionalOps() []*expr.Expr {
	return []*expr.Expr{
		expr.MatMul("mm", 16, 32, 16, dtype.FP32),
		expr.MatMul("mm_tall", 64, 8, 4, dtype.FP32),
		expr.BatchMatMul("bmm", 4, 8, 16, 8, dtype.FP32),
		expr.Conv2D("conv", 1, 4, 4, 8, 8, 3, 3, 1, dtype.FP32),
		expr.Elementwise("ew", 16, 16, 2, dtype.FP32),
	}
}

const (
	functionalCores    = 16
	functionalMinPlans = 8 // fewer executed plans means the check checked nothing
)

// functionalCheck compiles functionalOps with the compiler under test,
// executes every Pareto plan whose partitioning divides the operator
// exactly, and compares the result with expr.EvalRef — the independent
// element-wise interpreter, which knows nothing about plans. It returns
// how many plans it executed.
func functionalCheck(ctx context.Context, e *env, seed int64) (int, error) {
	c, err := newCompiler(e, device.IPUMK2().Subset(functionalCores), "")
	if err != nil {
		return 0, err
	}
	rng := rand.New(rand.NewSource(seed))
	executed := 0
	for _, op := range functionalOps() {
		inputs := make(map[string][]float32, len(op.Inputs))
		for _, in := range op.Inputs {
			buf := make([]float32, op.TensorElems(in))
			for i := range buf {
				buf[i] = rng.Float32()*2 - 1
			}
			inputs[in.Name] = buf
		}
		want, err := op.EvalRef(inputs)
		if err != nil {
			return executed, fmt.Errorf("reference of %s: %w", op.Name, err)
		}
		r, err := c.Search(ctx, op)
		if err != nil {
			return executed, fmt.Errorf("search of %s: %w", op.Name, err)
		}
		for i := range r.Pareto {
			p := r.Pareto[i].Plan
			if !divides(p.Fop, p.SubLen, op) {
				continue // padded plans have no element-exact reference
			}
			got, err := codegen.Execute(p, inputs)
			if err != nil {
				return executed, fmt.Errorf("execute %s plan %v: %w", op.Name, p.Fop, err)
			}
			if len(got) != len(want) {
				return executed, fmt.Errorf("%s plan %v: %d outputs, want %d", op.Name, p.Fop, len(got), len(want))
			}
			for j := range want {
				if math.Abs(float64(got[j]-want[j])) > 1e-3*(1+math.Abs(float64(want[j]))) {
					return executed, fmt.Errorf("%s plan %v: output[%d] = %g, reference %g",
						op.Name, p.Fop, j, got[j], want[j])
				}
			}
			executed++
		}
	}
	if executed < functionalMinPlans {
		return executed, fmt.Errorf("only %d plans were executable, want at least %d", executed, functionalMinPlans)
	}
	return executed, nil
}

func divides(fop, subLen []int, op *expr.Expr) bool {
	for a, ax := range op.Axes {
		if ax.Kind == expr.Gather || subLen[a]*fop[a] != ax.Size {
			return false
		}
	}
	return true
}
