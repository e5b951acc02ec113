package search

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/dtype"
	"repro/internal/expr"
	"repro/internal/kernel"
	"repro/internal/plancache"
)

// samePlans asserts two results selected bit-identical plans.
func samePlans(t *testing.T, a, b *Result) {
	t.Helper()
	if len(a.Pareto) != len(b.Pareto) {
		t.Fatalf("pareto sizes differ: %d vs %d", len(a.Pareto), len(b.Pareto))
	}
	for i := range a.Pareto {
		pa, pb := a.Pareto[i].Plan, b.Pareto[i].Plan
		if pa.String() != pb.String() {
			t.Fatalf("plan %d differs:\n%s\nvs\n%s", i, pa, pb)
		}
		ea, eb := a.Pareto[i].Est, b.Pareto[i].Est
		if ea != eb {
			t.Fatalf("estimate %d differs: %+v vs %+v", i, ea, eb)
		}
	}
	if a.Spaces.Filtered != b.Spaces.Filtered || a.Spaces.Optimized != b.Spaces.Optimized {
		t.Fatalf("spaces differ: %+v vs %+v", a.Spaces, b.Spaces)
	}
}

func TestFingerprintStableAcrossSearchers(t *testing.T) {
	e := expr.MatMul("mm", 1024, 1024, 4096, dtype.FP16)
	k1 := newSearcher().Key(e)
	k2 := newSearcher().Key(e)
	if k1 != k2 {
		t.Fatal("same op on identical searchers must share a fingerprint")
	}
}

func TestFingerprintSeparatesConfigurations(t *testing.T) {
	e := expr.MatMul("mm", 1024, 1024, 4096, dtype.FP16)
	base := newSearcher()

	shape := newSearcher()
	if base.Key(e) == shape.Key(expr.MatMul("mm", 1024, 1024, 8192, dtype.FP16)) {
		t.Error("different shapes share a fingerprint")
	}
	if base.Key(e) == shape.Key(expr.MatMul("mm", 1024, 1024, 4096, dtype.FP32)) {
		t.Error("different dtypes share a fingerprint")
	}

	cons := newSearcher()
	cons.Cons.ParallelismMin = 0.5
	if base.Key(e) == cons.Key(e) {
		t.Error("different constraints share a fingerprint")
	}

	cfg := newSearcher()
	cfg.Cfg.ShiftBufBytes = 16 * 1024
	if base.Key(e) == cfg.Key(e) {
		t.Error("different plan configs share a fingerprint")
	}

	dev := New(device.VIPU(2), testCM(), DefaultConstraints(), core.DefaultConfig())
	if base.Key(e) == dev.Key(e) {
		t.Error("different devices share a fingerprint")
	}

	custom := newSearcher()
	custom.CM.RegisterCustom("mm-custom", func(kernel.Task) float64 { return 1 })
	ec := expr.MatMul("mm-custom", 1024, 1024, 4096, dtype.FP16)
	if custom.Key(e) == custom.Key(ec) {
		t.Error("custom-priced op shares a fingerprint with the fitted model")
	}

	// Every field Key reads, mutated in turn on one searcher after a
	// first Key: each mutation must change the key — the memoised head
	// never goes stale, in-place Spec edits included — and leave it equal
	// to the reference assembly. keyDecision must name every field.
	walk := New(device.IPUMK2(), testCM(), DefaultConstraints(), core.DefaultConfig())
	prev := walk.Key(e)
	walked := 0
	walkKeyFields(t, reflect.ValueOf(walk), func(name string) {
		walked++
		k := walk.Key(e)
		if k == prev {
			t.Errorf("mutating %s left the key unchanged", name)
		}
		if ref := refKey(walk, e); k != ref {
			t.Errorf("after mutating %s: Key = %s, reference %s", name, k, ref)
		}
		prev = k
	})
	if walked < 20 {
		t.Fatalf("the walk mutated only %d fields", walked)
	}
}

// TestCachedResultEqualsFreshSearch runs both cold searches on one
// worker: samePlans compares Spaces.Filtered, and which subtrees racing
// workers cut before counting their leaves depends on the schedule
// (plan selection does not — TestSearchEquivalence covers the widths).
func TestCachedResultEqualsFreshSearch(t *testing.T) {
	e := expr.MatMul("mm", 512, 1024, 2048, dtype.FP16)
	s := newSearcher()
	s.Workers = 1
	r1, err := s.SearchOp(e)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.SearchOp(e) // in-memory hit
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatal("second search should return the cached result")
	}
	f := newSearcher()
	f.Workers = 1
	fresh, err := f.SearchOp(e) // independent cold search
	if err != nil {
		t.Fatal(err)
	}
	samePlans(t, r1, fresh)
}

func TestDiskCacheRehydratesIdenticalPlans(t *testing.T) {
	dir := t.TempDir()
	e := expr.MatMul("mm", 512, 1024, 2048, dtype.FP16)

	s1 := newSearcher()
	s1.SetCache(plancache.New(plancache.Options{Dir: dir}))
	cold, err := s1.SearchOp(e)
	if err != nil {
		t.Fatal(err)
	}
	if st := s1.Cache().Stats(); st.DiskWrites != 1 {
		t.Fatalf("stats = %+v, want 1 disk write", st)
	}

	// a fresh searcher over the same dir answers from disk
	s2 := newSearcher()
	s2.SetCache(plancache.New(plancache.Options{Dir: dir}))
	warm, err := s2.SearchOp(e)
	if err != nil {
		t.Fatal(err)
	}
	if st := s2.Cache().Stats(); st.DiskHits != 1 {
		t.Fatalf("stats = %+v, want 1 disk hit", st)
	}
	samePlans(t, cold, warm)
}

// TestMemoryOnlyColdSearchEncodesNothing: a record is encoded only
// when a tier stores it. A cold search on a memory-only cache encodes
// none; the same search under a cache dir encodes exactly one.
func TestMemoryOnlyColdSearchEncodesNothing(t *testing.T) {
	encodes := 0
	defer func(f func(*Result) ([]byte, error)) { encodeRecord = f }(encodeRecord)
	encodeRecord = func(r *Result) ([]byte, error) {
		encodes++
		return encodeResult(r)
	}
	e := expr.MatMul("mm", 512, 1024, 2048, dtype.FP16)
	if _, err := newSearcher().SearchOp(e); err != nil {
		t.Fatal(err)
	}
	if encodes != 0 {
		t.Fatalf("a memory-only cold search encoded %d records, want 0", encodes)
	}
	s := newSearcher()
	s.SetCache(plancache.New(plancache.Options{Dir: t.TempDir()}))
	if _, err := s.SearchOp(e); err != nil {
		t.Fatal(err)
	}
	if encodes != 1 {
		t.Fatalf("a cold search under a cache dir encoded %d records, want 1", encodes)
	}
}

// TestRecordCarryingCompleteStillHits: v8 records written while the
// complete-space estimate was part of every search carry a "complete"
// field the record no longer declares. The format did not change, so
// such a record must load as a disk hit, not a reject or a re-search.
func TestRecordCarryingCompleteStillHits(t *testing.T) {
	dir := t.TempDir()
	e := expr.MatMul("mm", 512, 1024, 2048, dtype.FP16)

	s1 := newSearcher()
	s1.SetCache(plancache.New(plancache.Options{Dir: dir}))
	cold, err := s1.SearchOp(e)
	if err != nil {
		t.Fatal(err)
	}
	key := s1.Key(e)
	payload, ok := s1.Cache().GetBlob(key)
	if !ok {
		t.Fatal("cold search left no disk record")
	}
	var rec map[string]json.RawMessage
	if err := json.Unmarshal(payload, &rec); err != nil {
		t.Fatal(err)
	}
	if _, has := rec["complete"]; has {
		t.Fatal("a fresh record still carries the complete-space count")
	}
	rec["complete"] = json.RawMessage(`"888151992172"`)
	old, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Cache().PutBlob(key, old); err != nil {
		t.Fatal(err)
	}

	s2 := newSearcher()
	s2.SetCache(plancache.New(plancache.Options{Dir: dir}))
	warm, err := s2.SearchOp(e)
	if err != nil {
		t.Fatal(err)
	}
	if st := s2.Cache().Stats(); st.DiskHits != 1 || st.DiskRejects != 0 {
		t.Fatalf("stats = %+v, want 1 disk hit and no reject", st)
	}
	samePlans(t, cold, warm)
}

func TestCorruptDiskEntryFallsBackToSearch(t *testing.T) {
	dir := t.TempDir()
	e := expr.MatMul("mm", 256, 512, 512, dtype.FP16)

	s := newSearcher()
	s.SetCache(plancache.New(plancache.Options{Dir: dir}))
	key := s.Key(e)
	// corrupt bytes written straight to the blob path — disk rot, a
	// partial copy, anything that never went through PutBlob's sealing
	if err := os.WriteFile(filepath.Join(dir, key.String()+".json"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := s.SearchOp(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Pareto) == 0 {
		t.Fatal("no plans after corrupt-entry fallback")
	}
	// the fresh search overwrote the corrupt record with a loadable one
	files, _ := filepath.Glob(filepath.Join(dir, "*.json"))
	if len(files) != 1 {
		t.Fatalf("want 1 cache file, got %v", files)
	}
	payload, ok := plancache.New(plancache.Options{Dir: dir}).GetBlob(key)
	if !ok {
		t.Fatal("overwritten record does not pass the provenance check")
	}
	if _, err := decodeResult(e, s.Cfg, payload); err != nil {
		t.Errorf("overwritten record still corrupt: %v", err)
	}
}

// TestStaleVersionRecordIsMissNotError writes plan records with stale
// (and future) format versions into the disk cache and proves each one
// is treated as a plain miss: the search re-runs without surfacing an
// error, returns real plans (not the bogus cached ones) and overwrites
// the record with the current version.
func TestStaleVersionRecordIsMissNotError(t *testing.T) {
	for _, format := range []int{1, 2, 3, resultFormat + 1} {
		dir := t.TempDir()
		e := expr.MatMul("mm", 256, 512, 512, dtype.FP16)
		s := newSearcher()
		s.SetCache(plancache.New(plancache.Options{Dir: dir}))
		key := s.Key(e)

		// A decodable record from another era: exactly one bogus plan.
		// A version check that ignored Format would rehydrate it.
		stale := fmt.Sprintf(`{"format":%d,"op":"mm","pareto":[{"fop":[1,1,1],"fts":[null,null,null],`+
			`"est":{"TotalNs":1,"MemPerCore":1}}],"complete":"1","filtered":1,"optimized":1}`, format)
		if err := s.Cache().PutBlob(key, []byte(stale)); err != nil {
			t.Fatal(err)
		}

		r, err := s.SearchOp(e)
		if err != nil {
			t.Fatalf("format %d: stale record must be a miss, got error: %v", format, err)
		}
		if len(r.Pareto) < 2 || r.Spaces.Filtered <= 1 {
			t.Fatalf("format %d: got the stale record's content back (pareto %d, filtered %d), want a fresh search",
				format, len(r.Pareto), r.Spaces.Filtered)
		}

		files, _ := filepath.Glob(filepath.Join(dir, "*.json"))
		if len(files) != 1 {
			t.Fatalf("format %d: want 1 cache file, got %v", format, files)
		}
		payload, ok := s.Cache().GetBlob(key)
		if !ok {
			t.Fatalf("format %d: overwritten record does not pass the provenance check", format)
		}
		var rec struct {
			Format int `json:"format"`
		}
		if err := json.Unmarshal(payload, &rec); err != nil {
			t.Fatal(err)
		}
		if rec.Format != resultFormat {
			t.Fatalf("format %d: record not overwritten, still v%d (want v%d)", format, rec.Format, resultFormat)
		}
		if _, err := decodeResult(e, s.Cfg, payload); err != nil {
			t.Fatalf("format %d: overwritten record does not decode: %v", format, err)
		}
	}
}

// TestStaleBuilderRecordOverwritten is the upgrade regression of every
// builder bump: a record sealed by an earlier pipeline's builder —
// perfectly valid JSON under a valid MAC for that era — must be a
// counted reject+miss for the current reader, trigger a fresh search,
// and be overwritten in place with a record the current builder seals
// and the old builder in turn refuses to load. The next bump is a row.
func TestStaleBuilderRecordOverwritten(t *testing.T) {
	for _, tc := range []struct {
		version int
		era     string // what the current builder cannot trust about the old records
	}{
		{5, "plans from before the fusion pass and its cost-model terms"},
		{6, "plans priced by a fit the current builder cannot name"},
		{7, "keys from specs with no generation component or interconnect"},
	} {
		t.Run(fmt.Sprintf("v%d", tc.version), func(t *testing.T) {
			dir := t.TempDir()
			e := expr.MatMul("mm", 256, 512, 512, dtype.FP16)
			s := newSearcher()
			s.SetCache(plancache.New(plancache.Options{Dir: dir}))
			key := s.Key(e)

			// seed the record exactly as that era's deployment would have:
			// one decodable-looking plan, sealed by the old builder
			builder := fmt.Sprintf("t10-builder/%d", tc.version)
			old := plancache.New(plancache.Options{Dir: dir, Builder: builder})
			stale := fmt.Sprintf(`{"format":%d,"op":"mm","pareto":[{"fop":[1,1,1],"fts":[null,null,null],`+
				`"est":{"TotalNs":1,"MemPerCore":1}}],"complete":"1","filtered":1,"optimized":1}`, tc.version)
			if err := old.PutBlob(key, []byte(stale)); err != nil {
				t.Fatal(err)
			}

			r, err := s.SearchOp(e)
			if err != nil {
				t.Fatalf("%s-sealed record (%s) must be a miss, got error: %v", builder, tc.era, err)
			}
			if len(r.Pareto) < 2 || r.Spaces.Filtered <= 1 {
				t.Fatalf("got the %s record's content back (pareto %d, filtered %d), want a fresh search",
					builder, len(r.Pareto), r.Spaces.Filtered)
			}
			st := s.Cache().Stats()
			if st.DiskRejects < 1 || st.DiskMisses < 1 {
				t.Fatalf("stats = %+v, want the stale builder counted as reject+miss", st)
			}
			if st.DiskWrites != 1 {
				t.Fatalf("stats = %+v, want exactly one overwrite", st)
			}

			// overwritten in place: one file, loadable by the current
			// builder, rejected by the old builder that sealed the original
			files, _ := filepath.Glob(filepath.Join(dir, "*.json"))
			if len(files) != 1 {
				t.Fatalf("want 1 cache file, got %v", files)
			}
			payload, ok := plancache.New(plancache.Options{Dir: dir}).GetBlob(key)
			if !ok {
				t.Fatal("overwritten record does not pass the current provenance check")
			}
			if _, err := decodeResult(e, s.Cfg, payload); err != nil {
				t.Fatalf("overwritten record does not decode: %v", err)
			}
			if _, ok := plancache.New(plancache.Options{Dir: dir, Builder: builder}).GetBlob(key); ok {
				t.Fatalf("%s loaded a record sealed by the current builder; builder provenance is not separating eras", builder)
			}
		})
	}
}

func TestConcurrentIdenticalSearchesDeduplicate(t *testing.T) {
	s := newSearcher()
	e := expr.MatMul("mm", 1024, 1024, 1024, dtype.FP16)

	const callers = 8
	var wg sync.WaitGroup
	results := make([]*Result, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := s.SearchOp(e)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = r
		}(i)
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if results[i] != results[0] {
			t.Fatal("concurrent identical searches returned distinct results")
		}
	}
	// exactly one flight ran: one miss from the first caller's Get, one
	// Put; the waiters never touched the cache
	if st := s.Cache().Stats(); st.Entries != 1 {
		t.Fatalf("stats = %+v, want a single entry", st)
	}
}

// TestCalibrationTagSeparatesFingerprints pins the cache-key half of
// the calibration release: two searchers differing only in their
// calibration tag must never answer each other, and an untagged
// searcher keeps the pre-calibration key.
func TestCalibrationTagSeparatesFingerprints(t *testing.T) {
	e := expr.MatMul("mm", 256, 512, 512, dtype.FP16)
	plain := newSearcher()
	calA := newSearcher()
	calA.Calibration = "v1-0011223344aa"
	calB := newSearcher()
	calB.Calibration = "v2-5566778899bb"
	kPlain, kA, kB := plain.Key(e), calA.Key(e), calB.Key(e)
	if kPlain == kA || kPlain == kB || kA == kB {
		t.Fatalf("calibration tags do not separate cache keys: plain=%s a=%s b=%s", kPlain, kA, kB)
	}
}

// TestGenerationSeparatesFingerprints pins the cache-key half of the
// device-generation release: searchers targeting different generations
// of the line must never answer each other — including two specs that
// share every per-core number and differ only in the inter-chip
// interconnect descriptor, which only the explicit gen= component
// separates from the pre-v8 key's point of view.
func TestGenerationSeparatesFingerprints(t *testing.T) {
	e := expr.MatMul("mm", 256, 512, 512, dtype.FP16)
	keys := map[plancache.Key]string{}
	for _, spec := range device.Generations() {
		s := New(spec, testCM(), DefaultConstraints(), core.DefaultConfig())
		k := s.Key(e)
		if prev, dup := keys[k]; dup {
			t.Fatalf("generations %s and %s share cache key %s", prev, spec.Name, k)
		}
		keys[k] = spec.Name
	}
	// same chip, different fabric: still a different generation
	fast := device.IPUMK2()
	fast.Interconnect.LinkGBps *= 2
	sA := New(device.IPUMK2(), testCM(), DefaultConstraints(), core.DefaultConfig())
	sB := New(fast, testCM(), DefaultConstraints(), core.DefaultConfig())
	if sA.Key(e) == sB.Key(e) {
		t.Fatal("interconnect change did not separate cache keys")
	}
}

// TestGoldenRecord pins the sealed plan-record bytes of one search: a
// change to the record layout (field order, JSON names, omitempty)
// would orphan every disk record and fleet peer as surely as a moved
// key, without bumping resultFormat. The pareto array is pinned on its
// own too: a tighter bound moves the search counters the full record
// carries, never the plans.
func TestGoldenRecord(t *testing.T) {
	const (
		goldenLen = 1469
		goldenSum = "c81960a54d5fb36f8eb54a814845b5daa0be3b9970da8e0f150736b8591b3da0"
		paretoSum = "b46d3ff2604026f028d10927a6a7385f10396ccac7330a684612dc2b4271e76e"
	)
	s := New(device.IPUMK2().Subset(64), testCM(), DefaultConstraints(), core.DefaultConfig())
	s.Workers = 1
	r, err := s.searchOp(context.Background(), expr.MatMul("mm", 256, 256, 512, dtype.FP16))
	if err != nil {
		t.Fatal(err)
	}
	r.Elapsed = 12345 * time.Nanosecond
	blob, err := encodeResult(r)
	if err != nil {
		t.Fatal(err)
	}
	var rec struct {
		Pareto json.RawMessage `json:"pareto"`
	}
	if err := json.Unmarshal(blob, &rec); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(rec.Pareto)
	if got := hex.EncodeToString(sum[:]); got != paretoSum {
		t.Errorf("pareto array sha256 %s; golden %s:\n%s", got, paretoSum, rec.Pareto)
	}
	sum = sha256.Sum256(blob)
	if got := hex.EncodeToString(sum[:]); len(blob) != goldenLen || got != goldenSum {
		t.Fatalf("record = %d bytes, sha256 %s; golden %d bytes, %s:\n%s", len(blob), got, goldenLen, goldenSum, blob)
	}
}
