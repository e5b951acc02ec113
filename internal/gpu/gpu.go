// Package gpu estimates DNN inference latency on a shared-memory GPU
// (A100 + TensorRT, §6.6/§6.7) with a roofline model: every operator is
// bounded by either tensor-core throughput or HBM bandwidth, plus a
// kernel launch overhead.
//
// The model captures exactly the two regimes the paper compares against:
// small batches are memory-bound (weights stream from HBM every step,
// which is where the IPU's on-chip residency wins), large batches are
// compute-bound (where the A100's higher peak FLOPS wins).
package gpu

import (
	"repro/internal/device"
	"repro/internal/expr"
	"repro/internal/graph"
	"repro/internal/mathutil"
	"repro/internal/perf"
)

// Estimate prices one model inference on the GPU.
func Estimate(m *graph.Model, spec *device.GPUSpec) *perf.Report {
	rep := &perf.Report{Model: m.Name, Compiler: spec.Name + "+TensorRT"}
	for i := range m.Ops {
		o := &m.Ops[i]
		ns, computeNs := opNs(o, spec)
		repeat := o.Repeat
		if repeat <= 0 {
			repeat = 1
		}
		f := float64(repeat)
		opRep := perf.OpReport{
			Name: o.Name, Repeat: repeat,
			ComputeNs: computeNs * f,
			TotalNs:   ns * f,
		}
		rep.Ops = append(rep.Ops, opRep)
		rep.TotalNs += opRep.TotalNs
		rep.ComputeNs += opRep.ComputeNs
	}
	return rep
}

// opNs returns (total, compute-only) time for one operator execution.
func opNs(o *graph.Op, spec *device.GPUSpec) (float64, float64) {
	e := o.Expr
	flops := float64(e.FLOPs())

	// tensor-core utilization collapses for short output tiles (decode
	// batches): the M dimension fills 64-row MMA pipelines
	mRows := 1
	if len(e.Inputs) > 0 {
		for a, ax := range e.Axes {
			if ax.Kind == expr.Spatial && expr.ContainsAxis(e.Inputs[0], a) {
				mRows *= ax.Size
			}
		}
	}
	util := float64(min(mathutil.RoundUp(mRows, 8), 64)) / 64
	effFlops := spec.PeakFP16TFLOPS * 1e3 * spec.MatMulEfficiency * util // FLOPs per ns
	if e.Kind != expr.KindMatMul && e.Kind != expr.KindConv {
		// vector ops do not use tensor cores; they are bandwidth-bound
		effFlops = spec.PeakFP16TFLOPS * 1e3 * 0.05
	}
	computeNs := 0.0
	if flops > 0 {
		computeNs = flops / effFlops
	}

	// HBM traffic: weights always stream from HBM (models exceed the L2
	// cache); activations only when they spill past half the L2
	bytes := o.WeightBytes()
	for j, in := range e.Inputs {
		if o.IsWeight(j) {
			continue
		}
		if b := e.TensorBytes(in); b > spec.L2Bytes/2 {
			bytes += b
		}
	}
	if b := e.TensorBytes(e.Output); b > spec.L2Bytes/2 {
		bytes += b
	}
	memNs := float64(bytes) / spec.HBMGBps

	ns := computeNs
	if memNs > ns {
		ns = memNs
	}
	return ns + spec.KernelLaunchNs, computeNs
}
