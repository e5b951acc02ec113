package t10

import (
	"context"
	"math"
	"reflect"
	"testing"

	"repro/internal/codegen"
	"repro/internal/costmodel"
	"repro/internal/device"
	"repro/internal/graph"
	"repro/internal/kernel"
	"repro/internal/models"
	"repro/internal/sim"
)

// sampleBits identifies a ring sample bit for bit.
type sampleBits struct {
	task kernel.Task
	ns   uint64
}

// TestSearchTapCoversSimulatedSteps pins why the search tap is the
// calibration loop's only one: a cold compile's searches already record,
// for every op, the sample a simulation of its active plan would make —
// the plan's kernel task paired with its simulated compute time per
// step, normalised as RecordMeasured normalises it — bit for bit, fused
// and unfused.
func TestSearchTapCoversSimulatedSteps(t *testing.T) {
	spec := device.IPUMK2()
	for _, fused := range []bool{false, true} {
		for _, m := range []*graph.Model{models.BERT(8), models.ResNet(8), models.ViT(8)} {
			ring := costmodel.NewSampleRing(costmodel.DefaultRingSize)
			opts := []CompilerOption{WithCalibration(ring, 0)}
			if fused {
				opts = append(opts, WithFusion(graph.DefaultRules()))
			}
			c, err := New(spec, DefaultOptions(), opts...)
			if err != nil {
				t.Fatal(err)
			}
			exe, err := c.Compile(context.Background(), m)
			if err != nil {
				t.Fatal(err)
			}
			held := map[sampleBits]bool{}
			for _, s := range ring.Snapshot() {
				held[sampleBits{s.Task, math.Float64bits(s.Ns)}] = true
			}
			if uint64(len(ring.Snapshot())) != ring.Total() {
				t.Fatalf("%s fused=%t: the ring overflowed (%d recorded)", m.Name, fused, ring.Total())
			}
			for i := range exe.Model.Ops {
				plan := exe.Schedule.Assignments[i].Active.Plan
				prog, err := codegen.Lower(spec, plan)
				if err != nil {
					t.Fatal(err)
				}
				per := sim.Run(spec, prog).ComputeNs / float64(plan.TotalSteps)
				one := costmodel.NewSampleRing(1)
				one.RecordMeasured(spec, plan.KernelTask(), per)
				want := one.Snapshot()[0]
				if !held[sampleBits{want.Task, math.Float64bits(want.Ns)}] {
					t.Errorf("%s fused=%t op %s: the search tap never recorded the simulated sample %+v",
						m.Name, fused, exe.Model.Ops[i].Name, want)
				}
			}
			t.Logf("%s fused=%t: %d ops covered by %d search samples", m.Name, fused, len(exe.Model.Ops), ring.Total())
		}
	}
}

// TestSimulateRecordsNothing pins Simulate as a pure function: on a
// calibrating compiler neither a plain nor a sharded executable's
// simulation records a sample, and repeated runs report alike.
func TestSimulateRecordsNothing(t *testing.T) {
	ctx := context.Background()
	ring := costmodel.NewSampleRing(costmodel.DefaultRingSize)
	c, err := New(device.IPUMK2(), DefaultOptions(), WithCalibration(ring, 0))
	if err != nil {
		t.Fatal(err)
	}
	m := models.BERT(8)
	exe, err := c.Compile(ctx, m)
	if err != nil {
		t.Fatal(err)
	}
	se, err := c.CompileSharded(ctx, m, 2)
	if err != nil {
		t.Fatal(err)
	}
	before := ring.Total()
	if a, b := exe.Simulate(), exe.Simulate(); !reflect.DeepEqual(a, b) {
		t.Errorf("two Simulate calls on one executable differ:\n%+v\n%+v", a, b)
	}
	if a, b := se.Simulate(), se.Simulate(); !reflect.DeepEqual(a, b) {
		t.Errorf("two Simulate calls on one sharded executable differ:\n%+v\n%+v", a, b)
	}
	if got := ring.Total() - before; got != 0 {
		t.Errorf("Simulate recorded %d samples, want 0", got)
	}
}
