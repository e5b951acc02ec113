package sim

import (
	"math"
	"testing"

	"repro/internal/device"
)

func mk2() *device.Spec { return device.IPUMK2() }

func TestRingExchangeIsBalanced(t *testing.T) {
	spec := mk2()
	p := &Program{Phases: []Phase{
		{Exch: &Exchange{Pattern: Ring, BytesPerCore: 5500, Stride: 1}},
	}}
	st := Run(spec, p)
	// 5500 bytes at 5.5 GB/s (= bytes/ns) is 1000 ns + startup.
	want := 1000 + spec.ExchangeStartupNs
	if math.Abs(st.ExchangeNs-want) > 1e-6 {
		t.Errorf("ring exchange = %f ns, want %f", st.ExchangeNs, want)
	}
	if st.BytesMoved != 5500*int64(spec.Cores) {
		t.Errorf("bytes moved = %d", st.BytesMoved)
	}
}

func TestExplicitHotSpotSerializes(t *testing.T) {
	spec := mk2()
	// 100 cores all fetch 1000 bytes from core 0: core 0's egress
	// serializes 100,000 bytes even though each reader only takes 1000.
	var tr []Transfer
	for d := 1; d <= 100; d++ {
		tr = append(tr, Transfer{Src: 0, Dst: d, Bytes: 1000})
	}
	st := Run(spec, &Program{Phases: []Phase{{Exch: &Exchange{Pattern: Explicit, Transfers: tr}}}})
	wantServe := 100000.0 / spec.LinkBytesPerNs()
	if st.ExchangeNs < wantServe {
		t.Errorf("hot spot not serialized: %f < %f", st.ExchangeNs, wantServe)
	}
	// A balanced version of the same volume is ~100x faster.
	var balanced []Transfer
	for d := 0; d < 100; d++ {
		balanced = append(balanced, Transfer{Src: d, Dst: (d + 1) % 100, Bytes: 1000})
	}
	st2 := Run(spec, &Program{Phases: []Phase{{Exch: &Exchange{Pattern: Explicit, Transfers: balanced}}}})
	if st2.ExchangeNs >= st.ExchangeNs/10 {
		t.Errorf("balanced exchange should be much faster: %f vs %f", st2.ExchangeNs, st.ExchangeNs)
	}
}

func TestExplicitIngressAlsoSerializes(t *testing.T) {
	spec := mk2()
	var tr []Transfer
	for s := 1; s <= 50; s++ {
		tr = append(tr, Transfer{Src: s, Dst: 0, Bytes: 2000})
	}
	st := Run(spec, &Program{Phases: []Phase{{Exch: &Exchange{Pattern: Explicit, Transfers: tr}}}})
	want := 100000.0 / spec.LinkBytesPerNs()
	if st.ExchangeNs < want {
		t.Errorf("ingress hot spot not serialized: %f < %f", st.ExchangeNs, want)
	}
}

func TestComputePhaseUsesSlowestCore(t *testing.T) {
	spec := mk2()
	per := make([]float64, 16)
	for i := range per {
		per[i] = float64(i * 100)
	}
	st := Run(spec, &Program{Phases: []Phase{{PerCoreNs: per}}})
	if st.ComputeNs != 1500 {
		t.Errorf("compute = %f, want 1500 (slowest core)", st.ComputeNs)
	}
}

func TestSyncChargedPerPhase(t *testing.T) {
	spec := mk2()
	p := &Program{Phases: []Phase{
		{ComputeNs: 100},
		{ComputeNs: 100, Exch: &Exchange{Pattern: Ring, BytesPerCore: 100, Stride: 1}},
	}}
	st := Run(spec, p)
	// 3 sync events: compute, compute, exchange.
	if want := 3 * spec.SyncNs; st.SyncNs != want {
		t.Errorf("sync = %f, want %f", st.SyncNs, want)
	}
	if st.TotalNs != st.ComputeNs+st.ExchangeNs+st.SyncNs {
		t.Error("total should be the sum of parts")
	}
}

func TestMultiChipRingCrossTraffic(t *testing.T) {
	one := mk2()
	two := device.VIPU(2)
	// A stride-1 ring barely crosses the boundary: only 2 cores out of
	// 2944 cross, so timing should stay close to single-chip.
	ex := &Exchange{Pattern: Ring, BytesPerCore: 55000, Stride: 1}
	stOne := Run(one, &Program{Phases: []Phase{{Exch: ex}}})
	stTwo := Run(two, &Program{Phases: []Phase{{Exch: ex}}})
	if stTwo.ExchangeNs > stOne.ExchangeNs*1.5 {
		t.Errorf("stride-1 ring should not bottleneck on IPU-Link: %f vs %f", stTwo.ExchangeNs, stOne.ExchangeNs)
	}
	// A large-stride ring pushes many cores across the boundary and must
	// be slower on the 2-chip device.
	exBig := &Exchange{Pattern: Ring, BytesPerCore: 55000, Stride: 736}
	stBig := Run(two, &Program{Phases: []Phase{{Exch: exBig}}})
	if stBig.ExchangeNs <= stTwo.ExchangeNs {
		t.Errorf("wide ring should pay IPU-Link cost: %f vs %f", stBig.ExchangeNs, stTwo.ExchangeNs)
	}
}

func TestAllToAllMultiChipBottleneck(t *testing.T) {
	one := mk2()
	two := device.VIPU(2)
	ex := &Exchange{Pattern: AllToAll, TotalBytes: 1 << 30}
	stOne := Run(one, &Program{Phases: []Phase{{Exch: ex}}})
	stTwo := Run(two, &Program{Phases: []Phase{{Exch: ex}}})
	if stTwo.ExchangeNs <= stOne.ExchangeNs {
		t.Errorf("all-to-all should slow down across chips: %f vs %f", stTwo.ExchangeNs, stOne.ExchangeNs)
	}
}

func TestBandwidthUtilizationRoofline(t *testing.T) {
	spec := mk2()
	// A long balanced ring exchange should approach (never exceed) the
	// 5.5 GB/s per-core roofline of Fig 14.
	p := &Program{Phases: []Phase{
		{Exch: &Exchange{Pattern: Ring, BytesPerCore: 1 << 20, Stride: 1}},
	}}
	st := Run(spec, p)
	// sender-side bytes per exchange ns per core, as Fig 14 counts them
	bw := float64(st.BytesMoved) / st.ExchangeNs / float64(spec.Cores)
	if bw > spec.LinkGBps {
		t.Errorf("utilization %f exceeds roofline %f", bw, spec.LinkGBps)
	}
	if bw < 0.95*spec.LinkGBps {
		t.Errorf("long balanced ring should near the roofline: %f", bw)
	}
}

func TestEmptyExchangesAreFree(t *testing.T) {
	spec := mk2()
	p := &Program{Phases: []Phase{
		{Exch: &Exchange{Pattern: Ring, BytesPerCore: 0, Stride: 1}},
		{Exch: &Exchange{Pattern: AllToAll, TotalBytes: 0}},
		{Exch: &Exchange{Pattern: Explicit}},
	}}
	st := Run(spec, p)
	if st.ExchangeNs != 0 || st.BytesMoved != 0 {
		t.Errorf("empty exchanges should cost nothing: %+v", st)
	}
}

func TestDataMachineBSPExchange(t *testing.T) {
	m := NewDataMachine(3)
	for c := 0; c < 3; c++ {
		m.Alloc(c, "x", 2)
		buf := m.Buf(c, "x")
		buf[0], buf[1] = float32(c), float32(c)+0.5
	}
	// circular shift: every core sends its buffer to core+1
	var copies []Copy
	for c := 0; c < 3; c++ {
		copies = append(copies, Copy{SrcCore: c, SrcBuf: "x", DstCore: (c + 1) % 3, DstBuf: "x", N: 2})
	}
	m.ExchangeAll(copies)
	for c := 0; c < 3; c++ {
		want := float32((c + 2) % 3)
		got := m.Buf(c, "x")
		if got[0] != want || got[1] != want+0.5 {
			t.Errorf("core %d = %v, want [%f %f]", c, got, want, want+0.5)
		}
	}
}

func TestDataMachineOverlappingShiftWindows(t *testing.T) {
	// Sliding-window shift within one buffer: core keeps elements [1,3)
	// and receives 1 new element — source and destination regions overlap
	// across cores, which only BSP staging handles correctly.
	m := NewDataMachine(2)
	m.Alloc(0, "w", 3)
	m.Alloc(1, "w", 3)
	copy(m.Buf(0, "w"), []float32{0, 1, 2})
	copy(m.Buf(1, "w"), []float32{3, 4, 5})
	copies := []Copy{
		// shift each window down by one inside the core
		{SrcCore: 0, SrcBuf: "w", SrcOff: 1, DstCore: 0, DstBuf: "w", DstOff: 0, N: 2},
		{SrcCore: 1, SrcBuf: "w", SrcOff: 1, DstCore: 1, DstBuf: "w", DstOff: 0, N: 2},
		// and pull the first element of the neighbor into the tail
		{SrcCore: 1, SrcBuf: "w", SrcOff: 0, DstCore: 0, DstBuf: "w", DstOff: 2, N: 1},
		{SrcCore: 0, SrcBuf: "w", SrcOff: 0, DstCore: 1, DstBuf: "w", DstOff: 2, N: 1},
	}
	m.ExchangeAll(copies)
	got0, got1 := m.Buf(0, "w"), m.Buf(1, "w")
	want0, want1 := []float32{1, 2, 3}, []float32{4, 5, 0}
	for i := range want0 {
		if got0[i] != want0[i] || got1[i] != want1[i] {
			t.Fatalf("windows: core0 %v core1 %v, want %v %v", got0, got1, want0, want1)
		}
	}
}

func TestDataMachineMemBytes(t *testing.T) {
	m := NewDataMachine(1)
	m.Alloc(0, "a", 100)
	m.Alloc(0, "b", 50)
	if got := m.MemBytes(0, 2); got != 300 {
		t.Errorf("MemBytes = %d, want 300", got)
	}
}

func TestDataMachinePanicsOnBadCopy(t *testing.T) {
	m := NewDataMachine(1)
	m.Alloc(0, "a", 4)
	defer func() {
		if recover() == nil {
			t.Error("out-of-range copy should panic")
		}
	}()
	m.ExchangeAll([]Copy{{SrcCore: 0, SrcBuf: "a", SrcOff: 2, DstCore: 0, DstBuf: "a", DstOff: 0, N: 4}})
}
