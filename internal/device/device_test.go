package device

import (
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestMK2MatchesTable3(t *testing.T) {
	s := IPUMK2()
	if s.Cores != 1472 {
		t.Errorf("cores = %d", s.Cores)
	}
	if s.CoreMemBytes != 624*1024 {
		t.Errorf("core mem = %d", s.CoreMemBytes)
	}
	if got := s.TotalMemBytes(); got < 890<<20 || got > 900<<20 {
		t.Errorf("total mem = %d, want ~896MB", got)
	}
	if s.LinkGBps != 5.5 {
		t.Errorf("link = %f", s.LinkGBps)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestVIPUConfigs(t *testing.T) {
	for _, chips := range []int{2, 4} {
		v := VIPU(chips)
		if v.Cores != 1472*chips || v.Chips != chips {
			t.Errorf("VIPU(%d) = %d cores %d chips", chips, v.Cores, v.Chips)
		}
		if v.CoresPerChip() != 1472 {
			t.Errorf("VIPU(%d) per-chip = %d", chips, v.CoresPerChip())
		}
		if err := v.Validate(); err != nil {
			t.Errorf("VIPU(%d): %v", chips, err)
		}
	}
}

func TestSubsetDoesNotMutateOriginal(t *testing.T) {
	s := IPUMK2()
	sub := s.Subset(368)
	if s.Cores != 1472 {
		t.Error("Subset mutated the original spec")
	}
	if sub.Cores != 368 {
		t.Errorf("subset cores = %d", sub.Cores)
	}
	// peak scales linearly with cores
	if ratio := sub.PeakTFLOPS() / s.PeakTFLOPS(); ratio < 0.24 || ratio > 0.26 {
		t.Errorf("peak ratio = %f, want 0.25", ratio)
	}
}

func TestValidateRejectsBadSpecs(t *testing.T) {
	bad := []func(*Spec){
		func(s *Spec) { s.Cores = 0 },
		func(s *Spec) { s.CoreMemBytes = 0 },
		func(s *Spec) { s.LinkGBps = 0 },
		func(s *Spec) { s.ClockGHz = 0 },
		func(s *Spec) { s.Chips = 0 },
		func(s *Spec) { s.Chips = 3 }, // 1472*... not divisible? 1472 % 3 != 0
	}
	for i, mutate := range bad {
		s := IPUMK2()
		mutate(s)
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: bad spec accepted", i)
		}
	}
}

// generation looks a generation up by its Spec.Name in Generations().
func generation(name string) (*Spec, bool) {
	for _, s := range Generations() {
		if s.Name == name {
			return s, true
		}
	}
	return nil, false
}

func TestGenerationsAllValidateAndAreDistinct(t *testing.T) {
	gens := Generations()
	if len(gens) < 4 {
		t.Fatalf("want at least 4 generations, got %d", len(gens))
	}
	seen := map[string]bool{}
	for _, g := range gens {
		if err := g.Validate(); err != nil {
			t.Errorf("%s: %v", g.Name, err)
		}
		if seen[g.Name] {
			t.Errorf("duplicate generation name %q", g.Name)
		}
		seen[g.Name] = true
		if got, ok := generation(g.Name); !ok || got.Name != g.Name {
			t.Errorf("generation(%q) lookup failed", g.Name)
		}
	}
	if !seen["IPU-MK2"] || !seen["SP2-STRESS"] {
		t.Fatalf("generation line missing MK2 or the stress spec: %v", seen)
	}
	if _, ok := generation("no-such-chip"); ok {
		t.Error("unknown generation resolved")
	}
	// The stress spec is the 10–100× core-count end of the line.
	sp2, _ := generation("SP2-STRESS")
	mk2, _ := generation("IPU-MK2")
	if r := float64(sp2.Cores) / float64(mk2.Cores); r < 10 || r > 200 {
		t.Errorf("stress spec core ratio = %.0f, want 10–200×", r)
	}
}

func TestGenerationKeySeparatesGenerations(t *testing.T) {
	keys := map[string]string{}
	for _, g := range Generations() {
		k := g.GenerationKey()
		if prev, dup := keys[k]; dup {
			t.Errorf("generations %s and %s share fingerprint key %q", prev, g.Name, k)
		}
		keys[k] = g.Name
	}
	// Same per-core numbers but a different interconnect must still
	// separate: a generation is chip + fabric.
	a, b := IPUMK2(), IPUMK2()
	b.Interconnect.LinkGBps *= 2
	if a.GenerationKey() == b.GenerationKey() {
		t.Error("interconnect change did not change the generation key")
	}
}

func TestValidateReturnsTypedSpecError(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Spec)
		field  string
	}{
		{"zero cores", func(s *Spec) { s.Cores = 0 }, "Cores"},
		{"negative cores", func(s *Spec) { s.Cores = -4 }, "Cores"},
		{"negative mem", func(s *Spec) { s.CoreMemBytes = -1 }, "CoreMemBytes"},
		{"sub-granule mem", func(s *Spec) { s.CoreMemBytes = s.AMPGranuleBytes() - 1 }, "CoreMemBytes"},
		{"zero link bw", func(s *Spec) { s.Interconnect.LinkGBps = 0 }, "Interconnect.LinkGBps"},
		{"nan link bw", func(s *Spec) { s.Interconnect.LinkGBps = math.NaN() }, "Interconnect.LinkGBps"},
		{"negative latency", func(s *Spec) { s.Interconnect.LatencyNs = -5 }, "Interconnect.LatencyNs"},
		{"inf latency", func(s *Spec) { s.Interconnect.LatencyNs = math.Inf(1) }, "Interconnect.LatencyNs"},
		{"unknown topology", func(s *Spec) { s.Interconnect.Topology = topoEnd }, "Interconnect.Topology"},
		{"negative topology", func(s *Spec) { s.Interconnect.Topology = -1 }, "Interconnect.Topology"},
	}
	for _, tc := range cases {
		s := IPUMK2()
		tc.mutate(s)
		err := s.Validate()
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		var se *SpecError
		if !errors.As(err, &se) {
			t.Errorf("%s: error %T is not *SpecError", tc.name, err)
			continue
		}
		if se.Field != tc.field {
			t.Errorf("%s: field = %q, want %q", tc.name, se.Field, tc.field)
		}
		if se.Device != "IPU-MK2" || !strings.Contains(err.Error(), "IPU-MK2") {
			t.Errorf("%s: error does not name the device: %v", tc.name, err)
		}
	}
}

func TestAMPGranuleFloor(t *testing.T) {
	s := IPUMK2()
	if g := s.AMPGranuleBytes(); g != 64*2*2 {
		t.Fatalf("MK2 granule = %d, want 256", g)
	}
	s.CoreMemBytes = s.AMPGranuleBytes()
	if err := s.Validate(); err != nil {
		t.Errorf("exactly one granule rejected: %v", err)
	}
}

func TestInterconnectCostModel(t *testing.T) {
	ic := Interconnect{LinkGBps: 160, LatencyNs: 600, Topology: TopoRing}
	if got := ic.TransferNs(0); got != 0 {
		t.Errorf("zero bytes priced %g", got)
	}
	// 160 GB/s == 160 bytes/ns: 16000 bytes serialize in 100ns + latency.
	if got := ic.TransferNs(16000); got != 700 {
		t.Errorf("TransferNs(16000) = %g, want 700", got)
	}
	hops := []struct {
		topo Topology
		n    int
		want int
	}{
		{TopoRing, 1, 0}, {TopoRing, 2, 1}, {TopoRing, 4, 2}, {TopoRing, 5, 3},
		{TopoAllToAll, 8, 1},
		{TopoMesh2D, 4, 2}, {TopoMesh2D, 9, 3},
	}
	for _, h := range hops {
		ic.Topology = h.topo
		if got := ic.GatherHops(h.n); got != h.want {
			t.Errorf("GatherHops(%s, %d) = %d, want %d", h.topo, h.n, got, h.want)
		}
	}
	if s := TopoMesh2D.String(); s != "mesh2d" {
		t.Errorf("String = %q", s)
	}
	if s := Topology(99).String(); !strings.Contains(s, "99") {
		t.Errorf("unknown topology String = %q", s)
	}
}

func TestLinkBytesPerNsProperty(t *testing.T) {
	// bytes/ns numerically equals GB/s for any positive bandwidth
	f := func(bw uint8) bool {
		s := IPUMK2()
		s.LinkGBps = float64(bw%100) + 0.5
		return s.LinkBytesPerNs() == s.LinkGBps
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestA100Spec(t *testing.T) {
	g := A100()
	if g.PeakFP16TFLOPS != 312 || g.HBMGBps != 2000 {
		t.Errorf("A100 = %+v", g)
	}
	if g.L2Bytes != 40<<20 {
		t.Errorf("L2 = %d", g.L2Bytes)
	}
}
