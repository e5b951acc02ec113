// Package sim is the inter-core connected chip simulator that stands in
// for the Graphcore IPU in this reproduction (the README's "Device
// generations" section lists the chips it models).
//
// The chip executes bulk-synchronous (BSP) supersteps, like the real IPU:
// every core computes from its private scratchpad, the chip synchronizes,
// then an exchange phase moves data between core memories. The simulator
// therefore works on a Program — a sequence of Phases, each with an
// optional per-core compute cost and an optional Exchange.
//
// Exchanges come in three flavors:
//
//   - Ring: every core sends the same number of bytes to a core at a
//     fixed stride (the compute-shift pattern §3–§4; perfectly balanced).
//   - Explicit: an arbitrary transfer list. Per-core ingress/egress
//     serialize at the link bandwidth, so hot spots — many cores reading
//     from one owner, the §2.2 VGM failure mode — stretch the phase.
//   - AllToAll: a uniform re-layout (inter-operator transitions §5).
//
// Multi-chip (V-IPU) targets bound traffic crossing a chip boundary by
// the IPU-Link bandwidth (§6.5).
//
// The timing model is intentionally simple and fully deterministic; what
// matters for reproducing the paper is that it prices serialization,
// imbalance, synchronization and finite memory.
package sim

import (
	"fmt"

	"repro/internal/device"
)

// Pattern selects how an Exchange's traffic is laid out.
type Pattern int

const (
	// Ring: each core sends BytesPerCore to core (id+Stride) mod Cores.
	Ring Pattern = iota
	// AllToAll: TotalBytes spread uniformly over all source cores and
	// destinations.
	AllToAll
	// Explicit: the Transfers list describes every movement.
	Explicit
)

// Transfer is one point-to-point copy in an Explicit exchange.
type Transfer struct {
	Src, Dst int
	Bytes    int64
}

// Exchange describes the data movement of one phase.
type Exchange struct {
	Pattern      Pattern
	BytesPerCore int64 // Ring: bytes sent by every core
	Stride       int   // Ring: destination offset
	TotalBytes   int64 // AllToAll: aggregate bytes moved
	Transfers    []Transfer
}

// Phase is one BSP superstep: compute, then synchronize, then exchange.
type Phase struct {
	// ComputeNs is the uniform per-core compute time. If PerCoreNs is
	// non-nil it overrides ComputeNs with heterogeneous costs (the phase
	// lasts as long as the slowest core).
	ComputeNs float64
	PerCoreNs []float64
	Exch      *Exchange
}

// Program is a sequence of phases plus its static per-core memory
// high-water mark (computed by the code generator).
type Program struct {
	Phases     []Phase
	MemPerCore int64
}

// Stats is the simulator's report for one program run.
type Stats struct {
	TotalNs    float64
	ComputeNs  float64
	ExchangeNs float64 // time spent in exchange phases (incl. startup)
	SyncNs     float64

	// BytesMoved is the total inter-core traffic.
	BytesMoved int64

	// MemPeakPerCore is the program's static per-core memory footprint.
	MemPeakPerCore int64

	Phases int
}

// Run simulates the program on the device and returns timing statistics.
func Run(spec *device.Spec, p *Program) Stats {
	st := Stats{MemPeakPerCore: p.MemPerCore, Phases: len(p.Phases)}
	for i := range p.Phases {
		ph := &p.Phases[i]
		compute := ph.ComputeNs
		if ph.PerCoreNs != nil {
			for _, c := range ph.PerCoreNs {
				if c > compute {
					compute = c
				}
			}
		}
		if compute > 0 {
			st.ComputeNs += compute
			st.SyncNs += spec.SyncNs
		}
		if ph.Exch != nil {
			ns, bytes := exchangeTime(spec, ph.Exch)
			st.ExchangeNs += ns
			st.BytesMoved += bytes
			st.SyncNs += spec.SyncNs
		}
	}
	st.TotalNs = st.ComputeNs + st.ExchangeNs + st.SyncNs
	return st
}

// exchangeTime prices one exchange phase: the slowest core's serialized
// ingress/egress at the link bandwidth, or the chip-boundary bottleneck,
// whichever is worse, plus the fixed startup.
func exchangeTime(spec *device.Spec, e *Exchange) (ns float64, bytes int64) {
	link := spec.LinkBytesPerNs()
	switch e.Pattern {
	case Ring:
		if e.BytesPerCore == 0 {
			return 0, 0
		}
		bytes = e.BytesPerCore * int64(spec.Cores)
		ns = float64(e.BytesPerCore) / link
		if spec.Chips > 1 {
			// Cores within `stride` of a chip boundary send across it.
			per := spec.CoresPerChip()
			stride := e.Stride % per
			if stride < 0 {
				stride = -stride
			}
			crossers := int64(spec.Chips) * int64(min(stride, per))
			crossBytes := crossers * e.BytesPerCore
			crossNs := float64(crossBytes) / (spec.InterChipGBps * float64(spec.Chips-1))
			if crossNs > ns {
				ns = crossNs
			}
		}
	case AllToAll:
		if e.TotalBytes == 0 {
			return 0, 0
		}
		bytes = e.TotalBytes
		perCore := float64(e.TotalBytes) / float64(spec.Cores)
		ns = perCore / link
		if spec.Chips > 1 {
			frac := float64(spec.Chips-1) / float64(spec.Chips)
			crossNs := float64(e.TotalBytes) * frac / (spec.InterChipGBps * float64(spec.Chips-1))
			if crossNs > ns {
				ns = crossNs
			}
		}
	case Explicit:
		if len(e.Transfers) == 0 {
			return 0, 0
		}
		in := make(map[int]int64)
		out := make(map[int]int64)
		var cross int64
		per := spec.CoresPerChip()
		for _, t := range e.Transfers {
			out[t.Src] += t.Bytes
			in[t.Dst] += t.Bytes
			bytes += t.Bytes
			if spec.Chips > 1 && t.Src/per != t.Dst/per {
				cross += t.Bytes
			}
		}
		var worst int64
		for _, b := range out {
			if b > worst {
				worst = b
			}
		}
		for _, b := range in {
			if b > worst {
				worst = b
			}
		}
		ns = float64(worst) / link
		if cross > 0 {
			crossNs := float64(cross) / (spec.InterChipGBps * float64(spec.Chips-1))
			if crossNs > ns {
				ns = crossNs
			}
		}
	default:
		panic(fmt.Sprintf("sim: unknown exchange pattern %d", e.Pattern))
	}
	return ns + spec.ExchangeStartupNs, bytes
}
