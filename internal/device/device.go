// Package device describes the hardware targets of the compiler: the
// inter-core connected intelligence processor line (Graphcore IPU MK1/
// MK2 and synthetic successor generations, plus a SpiNNaker2-scale
// stress configuration) and the A100 GPU used as the shared-memory
// comparison point (§6.6).
//
// The abstracted device interface of §4.4 (allocate / compute / shift) is
// realized by internal/codegen against internal/sim; this package only
// carries the numbers those layers need. Multi-chip scale-out
// (internal/scaleout) additionally needs the inter-chip fabric, carried
// here as the Interconnect descriptor.
package device

import (
	"fmt"
	"math"
)

// Topology classifies the inter-chip fabric layout; it decides how many
// link hops a cross-chip collective pays.
type Topology int

const (
	// TopoRing chains chips in a cycle (IPU-Link ladders): pipeline
	// neighbours are one hop, a gather from n chips pays ~n/2 hops.
	TopoRing Topology = iota
	// TopoMesh2D arranges chips in a square mesh (SpiNNaker-style
	// boards): a gather pays ~√n hops.
	TopoMesh2D
	// TopoAllToAll gives every chip pair a direct link (switch fabric):
	// every transfer is one hop.
	TopoAllToAll

	topoEnd // internal: first invalid value, for validation
)

func (t Topology) String() string {
	switch t {
	case TopoRing:
		return "ring"
	case TopoMesh2D:
		return "mesh2d"
	case TopoAllToAll:
		return "all-to-all"
	}
	return fmt.Sprintf("topology(%d)", int(t))
}

// Interconnect describes the inter-chip fabric of a device generation:
// the link the cross-chip partitioner (internal/scaleout) prices its
// transfer schedule against. Bandwidth is per directed link; crossing
// more than one hop serializes on each link in turn.
type Interconnect struct {
	// LinkGBps is the bandwidth of one inter-chip link in GB/s
	// (numerically equal to bytes/ns).
	LinkGBps float64

	// LatencyNs is the fixed per-transfer launch latency (sync +
	// protocol), charged once per hop.
	LatencyNs float64

	// Topology decides the hop count of multi-chip collectives.
	Topology Topology
}

// TransferNs prices moving `bytes` across one inter-chip link (one hop):
// launch latency plus serialization at the link bandwidth.
func (ic Interconnect) TransferNs(bytes int64) float64 {
	if bytes <= 0 {
		return 0
	}
	return ic.LatencyNs + float64(bytes)/ic.LinkGBps
}

// GatherHops returns the worst-case hop count of collecting a tensor
// sliced over n chips onto each of them (the all-gather closing a
// tensor-parallel stage). One chip needs no hops.
func (ic Interconnect) GatherHops(n int) int {
	if n <= 1 {
		return 0
	}
	switch ic.Topology {
	case TopoAllToAll:
		return 1
	case TopoMesh2D:
		return int(math.Ceil(math.Sqrt(float64(n))))
	default: // ring
		return (n + 1) / 2
	}
}

// Validate checks the descriptor; see Spec.Validate for how the typed
// error reaches callers.
func (ic Interconnect) validate(device string) *SpecError {
	switch {
	case ic.LinkGBps <= 0 || math.IsNaN(ic.LinkGBps) || math.IsInf(ic.LinkGBps, 0):
		return &SpecError{Device: device, Field: "Interconnect.LinkGBps",
			Reason: fmt.Sprintf("non-positive or non-finite bandwidth %v", ic.LinkGBps)}
	case ic.LatencyNs < 0 || math.IsNaN(ic.LatencyNs) || math.IsInf(ic.LatencyNs, 0):
		return &SpecError{Device: device, Field: "Interconnect.LatencyNs",
			Reason: fmt.Sprintf("negative or non-finite latency %v", ic.LatencyNs)}
	case ic.Topology < 0 || ic.Topology >= topoEnd:
		return &SpecError{Device: device, Field: "Interconnect.Topology",
			Reason: fmt.Sprintf("unknown topology %d", int(ic.Topology))}
	}
	return nil
}

// Spec describes one inter-core connected chip of a device generation
// (or a V-IPU made of several chips presented to the compiler as a
// single large chip, §6.5).
type Spec struct {
	Name string

	// Cores is the number of independent cores (IPU "tiles"). For a
	// V-IPU this is the total across chips.
	Cores int

	// CoreMemBytes is the per-core scratchpad capacity.
	CoreMemBytes int

	// LinkGBps is the bandwidth, in GB/s, at which one core can send to
	// (or receive from) remote cores. 1472 cores × 5.5 GB/s ≈ 8 TB/s
	// aggregate (§2.1).
	LinkGBps float64

	// ClockGHz is the core clock.
	ClockGHz float64

	// AMPMACsPerCycle is the per-core FP16 multiply-accumulate throughput
	// of the matrix unit (AMP): 1472 × 64 MACs × 2 FLOPs × 1.325 GHz ≈
	// 250 TFLOPS, matching Table 3.
	AMPMACsPerCycle int

	// VectorFP16PerCycle is the per-core FP16 vector-unit throughput used
	// by elementwise, pooling and reduction kernels.
	VectorFP16PerCycle int

	// LoadStoreBytesPerCycle is the local-memory streaming bandwidth per
	// core, which bounds memory-bound kernels.
	LoadStoreBytesPerCycle int

	// SyncNs is the latency of one BSP superstep boundary (compute →
	// exchange sync).
	SyncNs float64

	// ExchangeStartupNs is the fixed cost to launch one exchange phase.
	ExchangeStartupNs float64

	// OffChipGBps is the host/streaming memory bandwidth (8 GB/s on MK2;
	// §6.8 emulates faster HBM).
	OffChipGBps float64

	// Chips and InterChipGBps describe V-IPU configurations: exchanges
	// crossing a chip boundary are limited by the IPU-Link bandwidth
	// (160 GB/s, §6.5). These model a multi-chip device fused into ONE
	// compiler target; the scale-out partitioner instead composes N
	// single-chip targets over Interconnect.
	Chips         int
	InterChipGBps float64

	// Interconnect is the inter-chip fabric of this generation: what the
	// cross-chip partitioner (internal/scaleout) prices pipeline-stage
	// transfers and tensor-parallel gathers against.
	Interconnect Interconnect
}

// SpecError is the typed validation failure for a malformed device
// specification: which device, which field, and why. t10.New surfaces
// it unwrapped, so callers can errors.As on it.
type SpecError struct {
	Device string // Spec.Name, best-effort (may be empty)
	Field  string // the offending Spec field
	Reason string
}

func (e *SpecError) Error() string {
	name := e.Device
	if name == "" {
		name = "(unnamed)"
	}
	return fmt.Sprintf("device %s: invalid %s: %s", name, e.Field, e.Reason)
}

// AMPGranuleBytes is the smallest per-core working set the matrix unit
// can operate on: one granule of AMPMACsPerCycle FP16 multiply-
// accumulates needs both operand rows resident (2 operands × 2 bytes
// per element). A scratchpad smaller than this cannot hold even a
// single AMP issue's operands, so Validate rejects it.
func (s *Spec) AMPGranuleBytes() int {
	return s.AMPMACsPerCycle * 2 * 2
}

// IPUMK1 returns the first-generation chip of the line (Graphcore GC2):
// fewer cores, a quarter of MK2's per-core scratchpad, and a slower
// inter-chip fabric. The small end of the generation sweep.
func IPUMK1() *Spec {
	return &Spec{
		Name:                   "IPU-MK1",
		Cores:                  1216,
		CoreMemBytes:           256 * 1024,
		LinkGBps:               4,
		ClockGHz:               1.6,
		AMPMACsPerCycle:        32,
		VectorFP16PerCycle:     8,
		LoadStoreBytesPerCycle: 16,
		SyncNs:                 700,
		ExchangeStartupNs:      300,
		OffChipGBps:            8,
		Chips:                  1,
		InterChipGBps:          80,
		Interconnect:           Interconnect{LinkGBps: 80, LatencyNs: 900, Topology: TopoRing},
	}
}

// IPUMK2 returns the Graphcore IPU MK2 specification from Table 3 —
// the generation the paper's measurements target.
func IPUMK2() *Spec {
	return &Spec{
		Name:                   "IPU-MK2",
		Cores:                  1472,
		CoreMemBytes:           624 * 1024,
		LinkGBps:               5.5,
		ClockGHz:               1.325,
		AMPMACsPerCycle:        64,
		VectorFP16PerCycle:     8,
		LoadStoreBytesPerCycle: 16,
		SyncNs:                 600,
		ExchangeStartupNs:      250,
		OffChipGBps:            8,
		Chips:                  1,
		InterChipGBps:          160,
		Interconnect:           Interconnect{LinkGBps: 160, LatencyNs: 600, Topology: TopoRing},
	}
}

// IPUMK3 returns a synthetic next generation: double the cores, a third
// more scratchpad per core, and a switched (all-to-all) inter-chip
// fabric — the TPU-style "same architecture, scaled dials" successor.
func IPUMK3() *Spec {
	return &Spec{
		Name:                   "IPU-MK3",
		Cores:                  2944,
		CoreMemBytes:           832 * 1024,
		LinkGBps:               8,
		ClockGHz:               1.85,
		AMPMACsPerCycle:        128,
		VectorFP16PerCycle:     16,
		LoadStoreBytesPerCycle: 32,
		SyncNs:                 500,
		ExchangeStartupNs:      200,
		OffChipGBps:            32,
		Chips:                  1,
		InterChipGBps:          320,
		Interconnect:           Interconnect{LinkGBps: 320, LatencyNs: 400, Topology: TopoAllToAll},
	}
}

// SP2Stress returns the SpiNNaker2-scale stress configuration: a
// synthetic chip with 100× MK2's core count and SpiNNaker-class
// per-core memory, arranged on a 2D-mesh fabric. It exists to verify
// the subtree-pruned search stays tractable as core counts grow
// 10–100× (BenchmarkColdSearch/bigcore pins the wall-clock and
// priced-candidate ceilings), not to model shipped silicon.
func SP2Stress() *Spec {
	return &Spec{
		Name:                   "SP2-STRESS",
		Cores:                  147456, // 100× MK2, 2^14·3^2 for a rich divisor structure
		CoreMemBytes:           128 * 1024,
		LinkGBps:               2,
		ClockGHz:               0.3,
		AMPMACsPerCycle:        16,
		VectorFP16PerCycle:     4,
		LoadStoreBytesPerCycle: 8,
		SyncNs:                 2000,
		ExchangeStartupNs:      800,
		OffChipGBps:            16,
		Chips:                  1,
		InterChipGBps:          24,
		Interconnect:           Interconnect{LinkGBps: 24, LatencyNs: 1500, Topology: TopoMesh2D},
	}
}

// Generations returns the parameterized device line, small to large:
// MK1, MK2 (the paper's target), the synthetic MK3, and the
// SpiNNaker2-scale stress spec. Every entry passes Validate.
func Generations() []*Spec {
	return []*Spec{IPUMK1(), IPUMK2(), IPUMK3(), SP2Stress()}
}

// VIPU returns a virtual IPU exposing `chips` MK2 chips as one device
// (2,944 or 5,888 cores in §6.5).
func VIPU(chips int) *Spec {
	s := IPUMK2()
	s.Name = fmt.Sprintf("V-IPU-%dx", chips)
	s.Cores *= chips
	s.Chips = chips
	return s
}

// Subset returns a copy of s restricted to the given number of cores
// (used to emulate smaller chips, §6.5). Core memory per core is
// unchanged.
func (s *Spec) Subset(cores int) *Spec {
	c := *s
	c.Name = fmt.Sprintf("%s/%d", s.Name, cores)
	c.Cores = cores
	if cores <= 1472 {
		c.Chips = 1
	}
	return &c
}

// PeakTFLOPS returns the chip's peak FP16 throughput in TFLOPS.
func (s *Spec) PeakTFLOPS() float64 {
	return 2 * float64(s.AMPMACsPerCycle) * float64(s.Cores) * s.ClockGHz / 1e3
}

// AggregateLinkGBps returns the all-to-all inter-core bandwidth.
func (s *Spec) AggregateLinkGBps() float64 {
	return float64(s.Cores) * s.LinkGBps
}

// LinkBytesPerNs returns the per-core link bandwidth in bytes/ns.
func (s *Spec) LinkBytesPerNs() float64 { return s.LinkGBps }

// CoresPerChip returns the number of cores on each physical chip.
func (s *Spec) CoresPerChip() int {
	if s.Chips <= 1 {
		return s.Cores
	}
	return s.Cores / s.Chips
}

// TotalMemBytes returns the aggregate on-chip memory.
func (s *Spec) TotalMemBytes() int64 {
	return int64(s.Cores) * int64(s.CoreMemBytes)
}

// GenerationKey renders the fingerprint component that separates plan
// records across device generations: the generation name plus the
// interconnect descriptor. The full Spec already joins the fingerprint
// verbatim; this component exists so the generation separation is
// explicit and stable even for specs sharing all per-core numbers.
func (s *Spec) GenerationKey() string {
	return fmt.Sprintf("%s|ic=%g/%g/%s", s.Name,
		s.Interconnect.LinkGBps, s.Interconnect.LatencyNs, s.Interconnect.Topology)
}

// Validate checks the specification and returns a typed *SpecError for
// the first malformed field: non-positive core count or clock, a
// scratchpad too small to hold one AMP granule, inconsistent chip
// counts, or a malformed interconnect descriptor.
func (s *Spec) Validate() error {
	switch {
	case s.Cores <= 0:
		return &SpecError{Device: s.Name, Field: "Cores",
			Reason: fmt.Sprintf("need at least one core, got %d", s.Cores)}
	case s.CoreMemBytes <= 0:
		return &SpecError{Device: s.Name, Field: "CoreMemBytes",
			Reason: fmt.Sprintf("need positive core memory, got %d", s.CoreMemBytes)}
	case s.AMPMACsPerCycle > 0 && s.CoreMemBytes < s.AMPGranuleBytes():
		return &SpecError{Device: s.Name, Field: "CoreMemBytes",
			Reason: fmt.Sprintf("%d bytes is smaller than one AMP granule (%d bytes)",
				s.CoreMemBytes, s.AMPGranuleBytes())}
	case s.LinkGBps <= 0:
		return &SpecError{Device: s.Name, Field: "LinkGBps",
			Reason: fmt.Sprintf("need positive link bandwidth, got %g", s.LinkGBps)}
	case s.ClockGHz <= 0:
		return &SpecError{Device: s.Name, Field: "ClockGHz",
			Reason: fmt.Sprintf("need a positive clock, got %g", s.ClockGHz)}
	case s.Chips <= 0:
		return &SpecError{Device: s.Name, Field: "Chips",
			Reason: fmt.Sprintf("need at least one chip, got %d", s.Chips)}
	case s.Chips > 1 && s.Cores%s.Chips != 0:
		return &SpecError{Device: s.Name, Field: "Chips",
			Reason: fmt.Sprintf("%d cores not divisible across %d chips", s.Cores, s.Chips)}
	}
	if s.Interconnect != (Interconnect{}) {
		if err := s.Interconnect.validate(s.Name); err != nil {
			return err
		}
	}
	return nil
}

// GPUSpec is the roofline description of a shared-memory accelerator
// (§6.6, Table 3).
type GPUSpec struct {
	Name string

	// PeakFP16TFLOPS is the tensor-core peak.
	PeakFP16TFLOPS float64

	// MatMulEfficiency discounts the peak for achievable large-matmul
	// throughput through a tuned library (TensorRT).
	MatMulEfficiency float64

	// HBMGBps is the off-chip memory bandwidth.
	HBMGBps float64

	// L2Bytes is the on-chip global cache; weights that fit are loaded
	// from HBM once and reused across the batch.
	L2Bytes int64

	// KernelLaunchNs is the fixed per-operator overhead.
	KernelLaunchNs float64
}

// A100 returns the NVIDIA A100 specification from Table 3.
func A100() *GPUSpec {
	return &GPUSpec{
		Name:             "A100",
		PeakFP16TFLOPS:   312,
		MatMulEfficiency: 0.62,
		HBMGBps:          2000,
		L2Bytes:          40 * 1024 * 1024,
		KernelLaunchNs:   4500,
	}
}
