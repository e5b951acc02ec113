package vgm

import (
	"time"

	"repro/internal/expr"
	"repro/internal/graph"
	"repro/internal/kernel"
	"repro/internal/mathutil"
	"repro/internal/perf"
	"repro/internal/sim"
)

// vgmReserveBytes returns the per-core VGM reservation: every weight of
// the model plus the largest live activation set, block-distributed
// across all cores (§2.2: "to store an entire DL model on chip, all
// tensors used by the operators ... are placed in the VGM").
func (c *Compiler) vgmReserveBytes(m *graph.Model) int64 {
	var weights, maxAct int64
	for i := range m.Ops {
		o := &m.Ops[i]
		rep := int64(1)
		if o.Repeat > 1 {
			rep = int64(o.Repeat)
		}
		weights += o.WeightBytes() * rep
		var act int64
		for j, in := range o.Expr.Inputs {
			if !o.IsWeight(j) {
				act += o.Expr.TensorBytes(in)
			}
		}
		act += o.Expr.TensorBytes(o.Expr.Output)
		if act > maxAct {
			maxAct = act
		}
	}
	return mathutil.CeilDiv64(weights+maxAct, int64(c.Spec.Cores))
}

// ownersOf appends transfers splitting the byte range [off, off+n) of a
// tensor striped across cores (chunk bytes per core) between its owner
// cores and the reader/writer core.
func ownersOf(transfers []sim.Transfer, tensorBytes, off, n, chunk int64, core int, load bool) []sim.Transfer {
	if tensorBytes <= 0 || n <= 0 {
		return transfers
	}
	off %= tensorBytes
	for n > 0 {
		owner := int(off / chunk)
		end := (off/chunk + 1) * chunk
		take := n
		if off+take > end {
			take = end - off
		}
		if load {
			transfers = append(transfers, sim.Transfer{Src: owner, Dst: core, Bytes: take})
		} else {
			transfers = append(transfers, sim.Transfer{Src: core, Dst: owner, Bytes: take})
		}
		off = (off + take) % tensorBytes
		n -= take
	}
	return transfers
}

// opProgram lowers one operator to load-compute-store rounds and
// returns the program plus the tile chosen.
func (c *Compiler) opProgram(s opShape, t tile, vgmShare int64) *sim.Program {
	cores := c.Spec.Cores
	tilesM := mathutil.CeilDiv(s.M, t.m)
	tilesN := mathutil.CeilDiv(s.N, t.n)
	tilesK := mathutil.CeilDiv(s.K, t.k)
	total := tilesM * tilesN * tilesK
	rounds := mathutil.CeilDiv(total, cores)

	aTile := int64(t.m) * int64(t.k) * int64(s.elem)
	bTile := int64(t.k) * int64(t.n) * int64(s.elem)
	cTile := int64(t.m) * int64(t.n) * int64(s.elem)
	chunkA := mathutil.CeilDiv64(s.aBytes, int64(cores))
	chunkB := mathutil.CeilDiv64(s.bBytes, int64(cores))
	chunkC := mathutil.CeilDiv64(s.cBytes, int64(cores))

	computeNs := kernel.Nanoseconds(c.Spec, s.task(t))
	prog := &sim.Program{MemPerCore: vgmShare + s.workingSet(t)}
	for r := 0; r < rounds; r++ {
		var loads, stores []sim.Transfer
		lo := r * cores
		hi := min(lo+cores, total)
		for ti := lo; ti < hi; ti++ {
			core := ti - lo
			ik := ti % tilesK
			in := (ti / tilesK) % tilesN
			im := ti / (tilesK * tilesN)
			aIdx := int64(im*tilesK + ik)
			cIdx := int64(im*tilesN + in)
			loads = ownersOf(loads, s.aBytes, aIdx*aTile, aTile, chunkA, core, true)
			if s.hasB {
				bIdx := int64(ik*tilesN + in)
				loads = ownersOf(loads, s.bBytes, bIdx*bTile, bTile, chunkB, core, true)
			}
			if tilesK > 1 && ik > 0 {
				// partial accumulation: fetch the running output block
				loads = ownersOf(loads, s.cBytes, cIdx*cTile, cTile, chunkC, core, true)
			}
			stores = ownersOf(stores, s.cBytes, cIdx*cTile, cTile, chunkC, core, false)
		}
		prog.Phases = append(prog.Phases,
			sim.Phase{Exch: &sim.Exchange{Pattern: sim.Explicit, Transfers: loads}},
			sim.Phase{ComputeNs: computeNs, Exch: &sim.Exchange{Pattern: sim.Explicit, Transfers: stores}},
		)
	}
	return prog
}

// CompileModel compiles and simulates the whole model under the VGM
// execution model. Memory misfits come back as Infeasible reports, not
// errors — they are data points (the ✖ of Fig 12).
func (c *Compiler) CompileModel(m *graph.Model) (*perf.Report, error) {
	start := time.Now()
	rep := &perf.Report{Model: m.Name, Compiler: c.Kind.String()}
	vgmShare := c.vgmReserveBytes(m)
	budget := int64(c.Spec.CoreMemBytes) - vgmShare
	if budget <= 0 {
		rep.Infeasible = true
		rep.Reason = "VGM reservation alone exceeds core memory"
		rep.CompileTime = time.Since(start)
		return rep, nil
	}
	for i := range m.Ops {
		o := &m.Ops[i]
		s := shapeOf(o.Expr)
		t, err := c.selectTile(s, budget)
		if err != nil {
			rep.Infeasible = true
			rep.Reason = err.Error()
			rep.CompileTime = time.Since(start)
			return rep, nil
		}
		prog := c.opProgram(s, t, vgmShare)
		st := sim.Run(c.Spec, prog)
		repeat := o.Repeat
		if repeat <= 0 {
			repeat = 1
		}
		f := float64(repeat)
		opRep := perf.OpReport{
			Name: o.Name, Repeat: repeat,
			ComputeNs:  st.ComputeNs * f,
			ExchangeNs: st.ExchangeNs * f,
			SyncNs:     st.SyncNs * f,
			TotalNs:    st.TotalNs * f,
			BytesMoved: st.BytesMoved * int64(repeat),
			ShiftBytes: st.BytesMoved * int64(repeat),
			MemPerCore: st.MemPeakPerCore,
		}
		rep.Ops = append(rep.Ops, opRep)
		rep.ComputeNs += opRep.ComputeNs
		rep.ExchangeNs += opRep.ExchangeNs
		rep.SyncNs += opRep.SyncNs
		rep.TotalNs += opRep.TotalNs
		rep.BytesMoved += opRep.BytesMoved
		rep.ShiftBytes += opRep.ShiftBytes
		if opRep.MemPerCore > rep.MemPeakPerCore {
			rep.MemPeakPerCore = opRep.MemPerCore
		}
	}
	rep.CompileTime = time.Since(start)
	return rep, nil
}

// Fig2Stats returns the per-core memory split of Fig 2(b) for one
// operator: the active-operator region (this op's tensors resident in
// the VGM) versus the sub-operator working set.
func (c *Compiler) Fig2Stats(m *graph.Model, opIdx int) (activeBytes, subOpBytes int64, err error) {
	o := &m.Ops[opIdx]
	var opBytes int64
	for _, in := range o.Expr.Inputs {
		opBytes += o.Expr.TensorBytes(in)
	}
	opBytes += o.Expr.TensorBytes(o.Expr.Output)
	activeBytes = mathutil.CeilDiv64(opBytes, int64(c.Spec.Cores))

	s := shapeOf(o.Expr)
	budget := int64(c.Spec.CoreMemBytes) - c.vgmReserveBytes(m)
	t, err := c.selectTile(s, budget)
	if err != nil {
		return 0, 0, err
	}
	return activeBytes, s.workingSet(t), nil
}

// PlanPoint returns the per-core memory footprint and simulated time of
// the baseline's plan for a single operator under the given VGM
// reservation — the triangle markers of Fig 17, which show where a VGM
// compiler's one chosen plan sits against T10's Pareto frontier.
func (c *Compiler) PlanPoint(e *expr.Expr, vgmShare int64) (memPerCore int64, ns float64, err error) {
	s := shapeOf(e)
	budget := int64(c.Spec.CoreMemBytes) - vgmShare
	t, err := c.selectTile(s, budget)
	if err != nil {
		return 0, 0, err
	}
	prog := c.opProgram(s, t, vgmShare)
	st := sim.Run(c.Spec, prog)
	return st.MemPeakPerCore, st.TotalNs, nil
}
