// Package kernel is the detailed single-core kernel timing model: the
// simulator's ground truth for how long one sub-task takes on one core.
//
// In the paper this role is played by real IPU vertices (hand-written
// Poplar/assembly kernels). T10 never models them analytically — it
// profiles them and fits a linear-regression cost model (§4.3.1). We keep
// the same separation: internal/costmodel fits its regression against
// *this* package, so the cost-model-accuracy experiment (Fig 8) remains a
// real experiment. The model deliberately contains effects a linear model
// cannot express exactly (alignment round-ups, max() of compute and
// memory streams, a black-box convolution term), mirroring the paper's
// observation that convolution fits worst.
package kernel

import (
	"fmt"

	"repro/internal/device"
	"repro/internal/expr"
	"repro/internal/mathutil"
)

// Task describes one per-core sub-task: the local tile of an operator a
// single core computes in one compute-shift step (or one load-compute-
// store wave for the VGM baselines).
type Task struct {
	Kind expr.OpKind

	// M, N, K are the matrix-unit roles: M output rows, N output
	// columns, K the reduction depth. For convolution M = b·h·w, N = f,
	// K = c·kh·kw.
	M, N, K int

	// KH, KW are the convolution window sizes (1 otherwise).
	KH, KW int

	// Elems is the number of output points for vector-unit kernels.
	Elems int64

	// FLOPsPerElem is the arithmetic intensity of elementwise maps.
	FLOPsPerElem int

	// InBytes and OutBytes are the local bytes streamed by the kernel.
	InBytes, OutBytes int64

	// ChainK is the first-stage reduction depth of a chained (fused)
	// contraction: the kernel first reduces ChainK into an M×K
	// intermediate held in core-local scratch, then reduces K into the
	// M×N output. Zero for an unchained task.
	ChainK int

	// Epilogue is the vector-unit FLOPs applied per output point by a
	// fused elementwise epilogue (0 when none): the epilogue runs inside
	// the same vertex, so it pays ALU cycles but no second launch and no
	// intermediate round-trip through memory.
	Epilogue int

	// MidFLOPs is the vector-unit FLOPs applied per intermediate (M×K)
	// point between the stages of a chained contraction (softmax).
	MidFLOPs int
}

// vertexOverheadCycles is the fixed cost of launching one vertex on one
// core (argument unpacking, loop setup).
const vertexOverheadCycles = 180

// rowOverheadCycles is charged per AMP output-row block (pointer
// arithmetic between partial rows).
const rowOverheadCycles = 3

// ampM, ampK are the matrix-unit alignment granules: the AMP consumes
// operands in M-blocks of 8 and K-blocks of 16 (FP16). Shapes that do not
// align waste issue slots — the padding constraint of §4.3.1 exists
// precisely to bound this waste.
const (
	ampM = 8
	ampK = 16
)

// AMPRows is the matrix unit's row granule (ampM), exported for cost
// probes that must not model row tiles finer than the hardware issues.
const AMPRows = ampM

// Cycles returns the execution time of the task on one core, in cycles.
func Cycles(spec *device.Spec, t Task) float64 {
	var c float64
	switch t.Kind {
	case expr.KindMatMul:
		c = matmulCycles(spec, t)
	case expr.KindConv:
		c = convCycles(spec, t)
	case expr.KindPool, expr.KindReduce, expr.KindElementwise:
		c = vectorCycles(spec, t)
	case expr.KindGather:
		c = gatherCycles(spec, t)
	default:
		panic(fmt.Sprintf("kernel: unknown op kind %v", t.Kind))
	}
	return c + FusedVectorCycles(spec, t)
}

// FusedVectorCycles is the vector-unit time of a fused epilogue and
// mid-stage map. It is charged on top of the base kernel — the fusion
// win is the launch overhead and intermediate traffic it does NOT pay,
// not free ALU work. Exported so the planner's analytic estimate
// (internal/core) can add the identical term on top of a fitted
// prediction whose features never see the fusion fields.
func FusedVectorCycles(spec *device.Spec, t Task) float64 {
	if t.Epilogue == 0 && t.MidFLOPs == 0 {
		return 0
	}
	outPoints := float64(t.Elems)
	if t.Elems == 0 {
		outPoints = float64(max(t.M, 1)) * float64(max(t.N, 1))
	}
	midPoints := float64(max(t.M, 1)) * float64(max(t.K, 1))
	flops := outPoints*float64(t.Epilogue) + midPoints*float64(t.MidFLOPs)
	return flops / float64(spec.VectorFP16PerCycle)
}

// Nanoseconds returns the execution time of the task on one core, in ns.
func Nanoseconds(spec *device.Spec, t Task) float64 {
	return Cycles(spec, t) / spec.ClockGHz
}

func matmulCycles(spec *device.Spec, t Task) float64 {
	padM := mathutil.RoundUp(max(t.M, 1), ampM)
	padK := mathutil.RoundUp(max(t.K, 1), ampK)
	n := max(t.N, 1)
	macCycles := float64(padM) * float64(padK) * float64(n) / float64(spec.AMPMACsPerCycle)
	rows := float64(padM/ampM) * float64(n)
	if t.ChainK > 0 {
		// Chained contraction: stage 1 reduces ChainK into an M×K
		// intermediate, stage 2 reduces K into the M×N output — two AMP
		// passes in one vertex, intermediate kept in core-local scratch.
		padC := mathutil.RoundUp(t.ChainK, ampK)
		k := max(t.K, 1)
		macCycles = float64(padM) * (float64(padC)*float64(k) + float64(padK)*float64(n)) /
			float64(spec.AMPMACsPerCycle)
		rows = float64(padM/ampM) * float64(k+n)
	}
	memCycles := float64(t.InBytes+t.OutBytes) / float64(spec.LoadStoreBytesPerCycle)
	// Compute and operand streaming overlap; the slower stream dominates.
	return vertexOverheadCycles + rows*rowOverheadCycles + maxf(macCycles, memCycles)
}

func convCycles(spec *device.Spec, t Task) float64 {
	base := matmulCycles(spec, t)
	// Black-box vendor-kernel effects (§4.3.1 observes convolution is the
	// one operator type the linear cost model cannot fit near-perfectly):
	// an input-rearrangement pass whose cost depends non-linearly on the
	// window geometry, and a small per-window bookkeeping charge.
	window := float64(t.KH * t.KW)
	outPoints := float64(t.M) * float64(t.N)
	rearrange := float64(t.InBytes) / float64(spec.LoadStoreBytesPerCycle) * (0.35 + 0.65/window)
	perWindow := outPoints * window * 0.22
	return base + rearrange + perWindow
}

func vectorCycles(spec *device.Spec, t Task) float64 {
	flops := float64(t.Elems) * float64(max(t.FLOPsPerElem, 1))
	aluCycles := flops / float64(spec.VectorFP16PerCycle)
	memCycles := float64(t.InBytes+t.OutBytes) / float64(spec.LoadStoreBytesPerCycle)
	return vertexOverheadCycles + maxf(aluCycles, memCycles)
}

func gatherCycles(spec *device.Spec, t Task) float64 {
	// One indexed row copy per element row; dominated by local memory
	// streaming plus a per-row indirection charge.
	rows := float64(max(t.M, 1))
	memCycles := float64(t.InBytes+t.OutBytes) / float64(spec.LoadStoreBytesPerCycle)
	return vertexOverheadCycles + rows*6 + memCycles
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
