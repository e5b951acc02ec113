// t10c compiles a model and prints the execution plans T10 selected:
// per operator, the idle and active compute-shift plans with their
// partition factors, memory footprints and estimated times.
//
// Usage:
//
//	t10c -model BERT -batch 8
//	t10c -model OPT-13B -batch 2 -v     # include rTensor details
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"repro/internal/device"
	"repro/internal/graph"
	"repro/internal/models"
	"repro/t10"
)

func main() {
	model := flag.String("model", "BERT", "model name (BERT, ViT, ResNet, NeRF, OPT-*, Llama2-*, RetNet-1.3B)")
	batch := flag.Int("batch", 1, "batch size")
	verbose := flag.Bool("v", false, "print full rTensor configurations")
	save := flag.String("save", "", "write the operator graph as JSON and exit")
	load := flag.String("load", "", "compile a JSON operator graph instead of a built-in model")
	cacheDir := flag.String("cachedir", "", "on-disk plan cache directory (repeated invocations skip the search)")
	workers := flag.Int("workers", 0, "search worker pool size (0 = GOMAXPROCS)")
	flag.Parse()

	var m *graph.Model
	var err error
	if *load != "" {
		f, ferr := os.Open(*load)
		if ferr != nil {
			fatal(ferr)
		}
		m, err = graph.ReadJSON(f)
		f.Close()
	} else {
		m, err = models.Build(*model, *batch)
	}
	if err != nil {
		fatal(err)
	}
	if *save != "" {
		f, ferr := os.Create(*save)
		if ferr != nil {
			fatal(ferr)
		}
		if err := m.WriteJSON(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s (%d ops)\n", *save, len(m.Ops))
		return
	}
	opts := t10.DefaultOptions()
	opts.CacheDir = *cacheDir
	opts.Workers = *workers
	c, err := t10.New(device.IPUMK2(), opts)
	if err != nil {
		fatal(err)
	}
	exe, err := c.Compile(context.Background(), m)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s (batch %d): %d ops, %s params, compiled in %s\n",
		m.Name, m.BatchSize, len(m.Ops), human(m.ParamCount()), exe.CompileTime.Round(1e6))
	if *cacheDir != "" {
		st := c.CacheStats()
		fmt.Printf("plan cache: %d hits, %d misses, %d disk hits, %d disk writes\n",
			st.Hits, st.Misses, st.DiskHits, st.DiskWrites)
	}
	fmt.Printf("idle memory: %.1f%% of each core\n\n",
		100*float64(exe.Schedule.IdleMemPerCore)/float64(c.Spec.CoreMemBytes))

	for i := range m.Ops {
		op := &m.Ops[i]
		asg := &exe.Schedule.Assignments[i]
		fmt.Printf("%-12s ×%-3d  Fop=%v  steps=%d  active=%6.1fKB  idle=%6.1fKB  est=%8.1fµs  setup=%6.1fµs\n",
			op.Name, max(op.Repeat, 1), asg.Active.Plan.Fop, asg.Active.Plan.TotalSteps,
			float64(asg.Active.Est.MemPerCore)/1024, float64(asg.IdleMemPerCore)/1024,
			asg.ExecNs/1e3, asg.SetupNs/1e3)
		if *verbose {
			fmt.Println(asg.Active.Plan.String())
			fmt.Println()
		}
	}
}

func human(n int64) string {
	switch {
	case n >= 1e9:
		return fmt.Sprintf("%.1fB", float64(n)/1e9)
	case n >= 1e6:
		return fmt.Sprintf("%.0fM", float64(n)/1e6)
	}
	return fmt.Sprintf("%d", n)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "t10c:", err)
	os.Exit(1)
}
