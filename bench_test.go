// Benchmarks regenerating every table and figure of the paper's
// evaluation (§6). Each benchmark runs one experiment of the harness;
// the rendered tables print under -v via b.Log on the first iteration.
// Run all of them with:
//
//	go test -bench=. -benchmem
package repro_test

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/dtype"
	"repro/internal/exper"
	"repro/internal/expr"
	"repro/internal/interop"
	"repro/internal/models"
	"repro/internal/sim"
	"repro/t10"
)

var (
	hOnce sync.Once
	hh    *exper.Harness
)

func harness(b *testing.B) *exper.Harness {
	b.Helper()
	hOnce.Do(func() {
		h, err := exper.New()
		if err != nil {
			panic(err)
		}
		h.Quick = true
		hh = h
	})
	return hh
}

// benchExperiment runs one named experiment per iteration. Results are
// cached inside the harness, so the first iteration carries the real
// cost and later ones measure the render path — b.N semantics stay
// valid while the full suite stays tractable.
func benchExperiment(b *testing.B, name string) {
	h := harness(b)
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := h.Run(name, &buf); err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + buf.String())
		}
	}
}

func BenchmarkTable2(b *testing.B) { benchExperiment(b, "table2") }
func BenchmarkTable3(b *testing.B) { benchExperiment(b, "table3") }
func BenchmarkFig2(b *testing.B)   { benchExperiment(b, "fig2") }
func BenchmarkFig8(b *testing.B)   { benchExperiment(b, "fig8") }
func BenchmarkFig12(b *testing.B)  { benchExperiment(b, "fig12") }
func BenchmarkFig13(b *testing.B)  { benchExperiment(b, "fig13") }
func BenchmarkFig14(b *testing.B)  { benchExperiment(b, "fig14") }
func BenchmarkFig15(b *testing.B)  { benchExperiment(b, "fig15") }
func BenchmarkFig16(b *testing.B)  { benchExperiment(b, "fig16") }
func BenchmarkFig17(b *testing.B)  { benchExperiment(b, "fig17") }
func BenchmarkFig18(b *testing.B)  { benchExperiment(b, "fig18") }
func BenchmarkFig19(b *testing.B)  { benchExperiment(b, "fig19") }
func BenchmarkFig20(b *testing.B)  { benchExperiment(b, "fig20") }
func BenchmarkFig21(b *testing.B)  { benchExperiment(b, "fig21") }
func BenchmarkFig22(b *testing.B)  { benchExperiment(b, "fig22") }
func BenchmarkFig23(b *testing.B)  { benchExperiment(b, "fig23") }
func BenchmarkFig24(b *testing.B)  { benchExperiment(b, "fig24") }

// BenchmarkCompileOp measures the intra-operator search alone — the
// unit behind Fig 16's compilation-time story.
func BenchmarkCompileOp(b *testing.B) {
	c, err := t10.New(device.IPUMK2(), t10.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		// a unique k per iteration defeats the signature-keyed plan
		// cache, so every iteration pays a cold search
		e := expr.MatMul(fmt.Sprintf("mm%d", i), 1024, 1024+i, 4096, dtype.FP16)
		if _, err := c.Search(context.Background(), e); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationShiftBuffer sweeps the multi-copy shift buffer size
// (§5) on a heavily rotating operator: smaller buffers split every
// shift into more staged exchanges (more startup and sync), larger ones
// spend memory.
func BenchmarkAblationShiftBuffer(b *testing.B) {
	spec := device.IPUMK2()
	e := expr.MatMul("ffn", 128, 4096, 4096, dtype.FP16)
	for _, kb := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("%dKB", kb), func(b *testing.B) {
			cfg := core.Config{ShiftBufBytes: kb * 1024}
			p, err := core.NewPlan(e, []int{16, 1, 32}, [][]int{
				{1, 32}, // A rotates its k partitions
				{16, 1}, // B rotates its k partitions
				nil,
			}, cfg)
			if err != nil {
				b.Fatal(err)
			}
			var us float64
			for i := 0; i < b.N; i++ {
				prog, err := codegen.Lower(spec, p)
				if err != nil {
					b.Fatal(err)
				}
				us = sim.Run(spec, prog).TotalNs / 1e3
			}
			b.ReportMetric(us, "op-µs")
		})
	}
}

// BenchmarkAblationLoopOrder compares the §4.4 loop-order rule (bigger
// shift tiles outermost) against its inversion on a two-axis rotation.
func BenchmarkAblationLoopOrder(b *testing.B) {
	// Asymmetric tiles: A ships 4 KB per k-advance, B ships 32 KB per
	// n-advance — the rule keeps the 32 KB tile in the outer loop.
	e := expr.MatMul("mm", 64, 512, 512, dtype.FP16)
	p, err := core.NewPlan(e, []int{4, 1, 4}, [][]int{
		{1, 4}, // A rotates on k
		{1, 4}, // B rotates on n
		nil,
	}, core.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	if len(p.LoopOrder) != 2 {
		b.Fatalf("want 2 iterated axes, got %v", p.LoopOrder)
	}
	good := p.ShiftBytesPerCore()
	p.LoopOrder[0], p.LoopOrder[1] = p.LoopOrder[1], p.LoopOrder[0]
	bad := p.ShiftBytesPerCore()
	p.LoopOrder[0], p.LoopOrder[1] = p.LoopOrder[1], p.LoopOrder[0]
	if bad < good {
		b.Fatalf("loop-order rule regressed: %d vs %d bytes", good, bad)
	}
	b.ReportMetric(float64(bad)/float64(good), "inverted-traffic-x")
	for i := 0; i < b.N; i++ {
		_ = p.ShiftBytesPerCore()
	}
}

// BenchmarkAblationInterOp quantifies Algorithm 1: end-to-end latency
// with the inter-operator reconciliation and with every operator left
// at its minimum-memory idle plan (interop.ReconcileBaseline).
func BenchmarkAblationInterOp(b *testing.B) {
	for _, on := range []bool{true, false} {
		name := "on"
		if !on {
			name = "off"
		}
		b.Run(name, func(b *testing.B) {
			c, err := t10.New(device.IPUMK2(), t10.DefaultOptions())
			if err != nil {
				b.Fatal(err)
			}
			var latency float64
			for i := 0; i < b.N; i++ {
				exe, err := c.Compile(context.Background(), models.BERT(1))
				if err != nil {
					b.Fatal(err)
				}
				if !on {
					base := *exe
					if base.Schedule, err = interop.ReconcileBaseline(c.Spec, exe.Plans, int64(c.Spec.CoreMemBytes)); err != nil {
						b.Fatal(err)
					}
					exe = &base
				}
				latency = exe.Simulate().LatencyMs()
			}
			b.ReportMetric(latency, "model-ms")
		})
	}
}
