package t10

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/dtype"
	"repro/internal/expr"
	"repro/internal/models"
	"repro/internal/plancache"
	"repro/internal/scaleout"
	"repro/internal/sema"
)

// planFingerprint renders every plan selection of an executable — the
// idle and active compute-shift plan of each operator — so two compiles
// can be compared bit-for-bit.
func planFingerprint(e *Executable) string {
	out := ""
	for i := range e.Schedule.Assignments {
		a := &e.Schedule.Assignments[i]
		out += fmt.Sprintf("op%d %s\nidle %v %s\nactive %v %s\n",
			i, e.Model.Ops[i].Name,
			a.Idle.Est, a.Idle.Plan.String(),
			a.Active.Est, a.Active.Plan.String())
	}
	return out
}

// TestParallelCompilationMatchesSequential is the pipeline's
// equivalence gate: the concurrent, cache-backed path must select
// bit-identical plans to the Workers=1 sequential reference, warm or
// cold.
func TestParallelCompilationMatchesSequential(t *testing.T) {
	spec := device.IPUMK2()

	seqOpts := DefaultOptions()
	seqOpts.Workers = 1
	seq, err := New(spec, seqOpts)
	if err != nil {
		t.Fatal(err)
	}

	parOpts := DefaultOptions() // Workers=0 → GOMAXPROCS
	par, err := New(spec, parOpts)
	if err != nil {
		t.Fatal(err)
	}

	m := models.BERT(8)
	seqExe, err := seq.Compile(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	coldExe, err := par.Compile(context.Background(), models.BERT(8))
	if err != nil {
		t.Fatal(err)
	}
	warmExe, err := par.Compile(context.Background(), models.BERT(8)) // fully cached
	if err != nil {
		t.Fatal(err)
	}

	want := planFingerprint(seqExe)
	if got := planFingerprint(coldExe); got != want {
		t.Error("parallel compilation selected different plans than sequential")
	}
	if got := planFingerprint(warmExe); got != want {
		t.Error("cached compilation selected different plans than sequential")
	}
	if warmExe.CompileTime > coldExe.CompileTime {
		t.Logf("warm compile (%s) not faster than cold (%s)",
			warmExe.CompileTime, coldExe.CompileTime)
	}
}

// TestRepeatedCompileHitsCache mirrors the serving scenario: compiling
// the same model twice must answer every one of its operator searches
// from the plan cache (one lookup per unique search; the ops sharing a
// search share its result).
func TestRepeatedCompileHitsCache(t *testing.T) {
	c, err := New(device.IPUMK2(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Compile(context.Background(), models.BERT(8)); err != nil {
		t.Fatal(err)
	}
	m := models.BERT(8)
	est, err := c.EstimateCost(m)
	if err != nil {
		t.Fatal(err)
	}
	before := c.CacheStats()
	if _, err := c.Compile(context.Background(), m); err != nil {
		t.Fatal(err)
	}
	after := c.CacheStats()
	if hits := after.Hits - before.Hits; hits != int64(est.Ops) {
		t.Errorf("second compile produced %d cache hits for %d unique operator searches", hits, est.Ops)
	}
	if after.Misses != before.Misses {
		t.Errorf("second compile missed the cache %d times", after.Misses-before.Misses)
	}
}

// TestSharedCacheAcrossCompilers is the harness/serving configuration:
// two compilers over one cache, where the second never searches.
func TestSharedCacheAcrossCompilers(t *testing.T) {
	shared := plancache.New(plancache.Options{})
	opts := DefaultOptions()
	opts.SharedCache = shared

	c1, err := New(device.IPUMK2(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Compile(context.Background(), models.BERT(1)); err != nil {
		t.Fatal(err)
	}
	misses := shared.Stats().Misses

	c2, err := New(device.IPUMK2(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Compile(context.Background(), models.BERT(1)); err != nil {
		t.Fatal(err)
	}
	if got := shared.Stats().Misses; got != misses {
		t.Errorf("second compiler missed the shared cache %d times", got-misses)
	}
}

// TestDiskCacheAcrossCompilerInstances simulates two t10c invocations
// sharing a cache dir: the second compiler (fresh in-memory cache)
// answers from disk and selects identical plans.
func TestDiskCacheAcrossCompilerInstances(t *testing.T) {
	dir := t.TempDir()
	opts := DefaultOptions()
	opts.CacheDir = dir

	c1, err := New(device.IPUMK2(), opts)
	if err != nil {
		t.Fatal(err)
	}
	e1, err := c1.Compile(context.Background(), models.BERT(1))
	if err != nil {
		t.Fatal(err)
	}
	if st := c1.CacheStats(); st.DiskWrites == 0 {
		t.Fatal("first compile wrote nothing to the disk layer")
	}

	c2, err := New(device.IPUMK2(), opts)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := c2.Compile(context.Background(), models.BERT(1))
	if err != nil {
		t.Fatal(err)
	}
	st := c2.CacheStats()
	if st.DiskHits == 0 {
		t.Error("second compiler never hit the disk layer")
	}
	if planFingerprint(e1) != planFingerprint(e2) {
		t.Error("disk-cached compile selected different plans")
	}
}

// TestWarmCompileAllocCeiling is the count-based guard of the warm
// path: a warm compile is one cache lookup per unique operator, so its
// allocations follow the model's op count, not the fingerprint's
// assembly or the reconciliation's greedy steps. The ceilings are 1.25×
// the counts measured at Workers=1 and default tags (the Sprintf key
// assembly, called twice per unique op, read 792 on BERT-8 and 1776 on
// ResNet-8; a fresh []Assignment per greedy step and a map per op's
// liveness still read 148 and 328; a key buffer and signature string
// per Key and expr.Validate's two maps and used-axis slice 76 and
// 140). Under the race detector sync.Pool drops a quarter of its Puts
// at random, and a Key whose hasher was dropped builds a new one
// (struct, digest, buffer): the ceiling then allows one allocation per
// op on top.
//
// A warm compile calls Key exactly once per op, when prepare lists
// it, and never again for the listed search (keyHook counts the
// calls). On a shared pool the compiler also prices every request's
// admission before running it; the price reads the keys of the list
// the request then searches, so a warm compile there keys each op once
// too, and a warm single-op search once.
func TestWarmCompileAllocCeiling(t *testing.T) {
	for _, tc := range []struct {
		model   string
		ceiling float64
		shared  bool // on a shared pool: every request is priced
	}{
		{"BERT", 1.25 * 34, false},
		{"ResNet", 1.25 * 37, false},
		{"BERT", 1.25 * 33, true},
	} {
		opts := DefaultOptions()
		opts.Workers = 1
		if tc.shared {
			opts.SharedPool = sema.NewShared(1, 0)
		}
		c, err := New(device.IPUMK2(), opts)
		if err != nil {
			t.Fatal(err)
		}
		m, err := models.Build(tc.model, 8)
		if err != nil {
			t.Fatal(err)
		}
		compile := func() {
			if _, err := c.CompileWithResult(context.Background(), m); err != nil {
				t.Fatal(err)
			}
		}
		ceiling := tc.ceiling
		if raceEnabled {
			ceiling += float64(len(m.Ops))
		}
		compile() // cold: every later compile is warm
		name := tc.model + "-8"
		if tc.shared {
			name += " (shared pool)"
		}
		if allocs := testing.AllocsPerRun(10, compile); allocs > ceiling {
			t.Errorf("%s: a warm compile allocates %.0f times, ceiling %.0f", name, allocs, ceiling)
		} else {
			t.Logf("%s: %.0f allocs per warm compile (ceiling %.0f)", name, allocs, ceiling)
		}

		if keys := countKeys(compile); keys != len(m.Ops) {
			t.Errorf("%s: a warm compile keys %d times for %d ops", name, keys, len(m.Ops))
		}
		if tc.shared {
			search := func() {
				if _, err := c.SearchWithResult(context.Background(), m.Ops[0].Expr); err != nil {
					t.Fatal(err)
				}
			}
			if keys := countKeys(search); keys != 1 {
				t.Errorf("%s: a warm search keys %d times", name, keys)
			}
		}
	}
}

// TestPlacementCheckedOncePerPlan is the count guard of the lowering
// path. A 2-chip OPT-1.3B-prefill-8 CompileSharded simulates every stage
// it compiles, lowering the plans the cache shares between stages many
// times over; the §4.4 placement proof must run at most once per
// distinct plan lowered, and lowering everything again must run none.
// A second Lower of one plan must then allocate the same on a 1024-core
// plan as on a 16-core one: nothing in it walks the cores any more.
func TestPlacementCheckedOncePerPlan(t *testing.T) {
	ctx := context.Background()
	opts := DefaultOptions()
	opts.Workers = 1
	c, err := New(device.IPUMK2(), opts)
	if err != nil {
		t.Fatal(err)
	}
	m, err := models.Build("OPT-1.3B-prefill", 8)
	if err != nil {
		t.Fatal(err)
	}
	before := core.PlacementChecks()
	if _, err := c.CompileShardedWithResult(ctx, m, 2, WithPipelineMicrobatches(4)); err != nil {
		t.Fatal(err)
	}
	checks := core.PlacementChecks() - before

	// Replay the partition search on the now-warm cache: its stage
	// compiles hand out the same plans, so this finds every plan the
	// sharded compile lowered, and its simulations must all be memo hits.
	before = core.PlacementChecks()
	lowered := map[*core.Plan]bool{}
	lowerings := 0
	sp, err := scaleout.NewSpace(m, scaleout.Config{NChips: 2, Microbatches: 4})
	if err != nil {
		t.Fatal(err)
	}
	_, err = sp.Search(ctx, c.Spec.Interconnect,
		func(i int) (any, float64, error) {
			exe, err := c.Compile(ctx, sp.Stages[i].Model)
			if err != nil {
				return nil, 0, err
			}
			for i := range exe.Schedule.Assignments {
				lowered[exe.Schedule.Assignments[i].Active.Plan] = true
				lowerings++
			}
			return exe, exe.Simulate().TotalNs, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if again := core.PlacementChecks() - before; again != 0 {
		t.Errorf("re-simulating the lowered plans ran %d placement proofs, want 0", again)
	}
	if checks > int64(len(lowered)) {
		t.Errorf("2-chip sharded compile ran %d placement proofs for %d distinct plans", checks, len(lowered))
	}
	t.Logf("%d lowerings of %d distinct plans, %d placement proofs", lowerings, len(lowered), checks)

	// B[k,n] rotates around 8-core rings; the per-core program is the
	// same at both sizes, only the core count differs
	repeatLower := func(n, fopN int) (allocs, bytes float64) {
		p, err := core.NewPlan(expr.MatMul("mm", 64, 4096, n, dtype.FP16), []int{8, 1, fopN},
			[][]int{nil, {8, 1}, nil}, core.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		lower := func() {
			if _, err := codegen.Lower(device.IPUMK2(), p); err != nil {
				t.Fatal(err)
			}
		}
		lower() // the first Lower runs the proof
		return testing.AllocsPerRun(20, lower), allocBytes(20, lower)
	}
	smallAllocs, smallBytes := repeatLower(16, 2)
	bigAllocs, bigBytes := repeatLower(1024, 128)
	// one proof over 1024 cores would allocate well over 9 KiB
	if bigAllocs != smallAllocs || bigBytes > smallBytes+512 {
		t.Errorf("a second Lower allocates %.0f times / %.0f B on 1024 cores, %.0f / %.0f B on 16",
			bigAllocs, bigBytes, smallAllocs, smallBytes)
	}
	t.Logf("a second Lower: %.0f allocs, %.0f B (16 cores) / %.0f B (1024 cores)", smallAllocs, smallBytes, bigBytes)
}

// allocBytes returns the heap bytes f allocates per call, averaged over
// runs calls.
func allocBytes(runs int, f func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}
