package t10

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/device"
	"repro/internal/models"
	"repro/internal/plancache"
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
