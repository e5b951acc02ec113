package graph

import (
	"testing"

	"repro/internal/dtype"
	"repro/internal/expr"
)

// chain builds a linear model of n matmuls threaded through each other.
func chain(n int) *Model {
	m := &Model{Name: "chain", BatchSize: 1}
	for i := 0; i < n; i++ {
		src := External
		if i > 0 {
			src = i - 1
		}
		m.Ops = append(m.Ops, Op{
			Name:         "mm",
			Expr:         expr.MatMul("mm", 8, 8, 8, dtype.FP16),
			WeightInputs: []int{1},
			Sources:      []int{src, External},
		})
	}
	return m
}

func TestChainValidates(t *testing.T) {
	if err := chain(4).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestLivenessChain(t *testing.T) {
	// In a pure chain only the immediate predecessor's output is live.
	m := chain(4)
	live := m.Liveness()
	out := m.Ops[0].Expr.TensorBytes(m.Ops[0].Expr.Output)
	if live[0] != 0 {
		t.Errorf("first op should have no live activations, got %d", live[0])
	}
	for i := 1; i < 4; i++ {
		if live[i] != out {
			t.Errorf("op %d live = %d, want %d (one activation)", i, live[i], out)
		}
	}
}

func TestLivenessSkipConnection(t *testing.T) {
	// op0 -> op1 -> op2(add uses op1 and op0): op0's output must stay
	// live across op1 and op2.
	m := chain(2)
	add := expr.EltwiseBinary("add", 8, 8, dtype.FP16)
	m.Ops = append(m.Ops, Op{
		Name: "add", Expr: add, Sources: []int{1, 0},
	})
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	live := m.Liveness()
	out := m.Ops[0].Expr.TensorBytes(m.Ops[0].Expr.Output)
	if live[1] != out {
		t.Errorf("op1 live = %d, want %d (skip keeps op0 alive)", live[1], out)
	}
	if live[2] != 2*out {
		t.Errorf("add live = %d, want %d (both inputs)", live[2], 2*out)
	}
}

func TestLivenessDeadAfterLastUse(t *testing.T) {
	m := chain(3)
	live := m.Liveness()
	// op0's output dies after op1 consumes it: not live at op2
	out := m.Ops[0].Expr.TensorBytes(m.Ops[0].Expr.Output)
	if live[2] != out { // only op1's output
		t.Errorf("op2 live = %d, want one activation %d", live[2], out)
	}
}

func TestWeightAccounting(t *testing.T) {
	m := chain(2)
	op := &m.Ops[0]
	if op.WeightElems() != 8*8 {
		t.Errorf("weight elems = %d", op.WeightElems())
	}
	if op.WeightBytes() != 8*8*2 {
		t.Errorf("weight bytes = %d", op.WeightBytes())
	}
	if !op.IsWeight(1) || op.IsWeight(0) {
		t.Error("IsWeight misclassifies")
	}
	if m.ParamCount() != 2*8*8 {
		t.Errorf("params = %d", m.ParamCount())
	}
}

func TestRepeatMultipliesAccounting(t *testing.T) {
	m := chain(1)
	m.Ops[0].Repeat = 5
	if m.ParamCount() != 5*8*8 {
		t.Errorf("repeated params = %d", m.ParamCount())
	}
	if m.FLOPs() != 5*2*8*8*8 {
		t.Errorf("repeated flops = %d", m.FLOPs())
	}
}

func TestValidateCatchesWeightWithProducer(t *testing.T) {
	m := chain(2)
	m.Ops[1].Sources[1] = 0 // weight input fed by an op
	if err := m.Validate(); err == nil {
		t.Error("weight with a producer should fail validation")
	}
}

func TestValidateCatchesSourceCountMismatch(t *testing.T) {
	m := chain(2)
	m.Ops[1].Sources = []int{0}
	if err := m.Validate(); err == nil {
		t.Error("source count mismatch should fail validation")
	}
}
