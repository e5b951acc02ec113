package search

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/device"
	"repro/internal/dtype"
	"repro/internal/expr"
	"repro/internal/graph"
	"repro/internal/kernel"
	"repro/internal/models"
	"repro/internal/plancache"
)

// refKey is the key assembly Key replaced, kept verbatim: one
// plancache.Fingerprint over Sprintf-built parts on every call. Key
// memoises the configuration head and appends the per-operator tail
// into one buffer; its bytes must stay exactly these, or every disk
// record and fleet peer sealed under them is orphaned.
func refKey(s *Searcher, e *expr.Expr) plancache.Key {
	custom := ""
	if s.CM.HasCustom(e.Name) {
		custom = e.Name
	}
	return plancache.Fingerprint(
		fmt.Sprintf("t10-plan-v%d", resultFormat),
		"gen="+s.Spec.GenerationKey(),
		fmt.Sprintf("%#v", *s.Spec),
		fmt.Sprintf("cons|par=%g|pad=%g|ft=%d", s.Cons.ParallelismMin, s.Cons.PaddingMin, maxFtCombos),
		fmt.Sprintf("cfg|shiftbuf=%d", s.Cfg.ShiftBufBytes),
		// the retired engine modes, at the values every record was keyed with
		"keepall=false",
		"noprune=false",
		"nosubtree=false",
		"custom="+custom,
		"fusion="+s.FusionRules,
		"calib="+s.Calibration,
		e.Signature(),
	)
}

// registeredModels builds every model models.Build names at one batch.
func registeredModels(t *testing.T, batch int) []*graph.Model {
	t.Helper()
	names := models.Table2()
	for _, cfg := range models.LLMConfigs() {
		names = append(names, cfg.Name, cfg.Name+"-prefill", cfg.Name+"-decode")
	}
	out := make([]*graph.Model, len(names))
	for i, name := range names {
		m, err := models.Build(name, batch)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = m
	}
	return out
}

// TestKeyMatchesReference pins Key to refKey byte for byte on every op
// of every registered model at batch 1 and 8, unfused and under the
// default fusion rules, on every device generation, for a custom-priced
// operator and under a calibration tag.
func TestKeyMatchesReference(t *testing.T) {
	var ops []*expr.Expr
	fused := 0
	for _, batch := range []int{1, 8} {
		for _, m := range registeredModels(t, batch) {
			fg, err := graph.Fuse(m, graph.DefaultRules())
			if err != nil {
				t.Fatal(err)
			}
			for _, g := range []*graph.Model{m, fg.Fused} {
				for i := range g.Ops {
					ops = append(ops, g.Ops[i].Expr)
					if g.Ops[i].Expr.FusedOps > 0 {
						fused++
					}
				}
			}
		}
	}
	if fused == 0 {
		t.Fatal("no fused operator reached the comparison")
	}

	check := func(s *Searcher, what string) {
		t.Helper()
		for _, e := range ops {
			if got, want := s.Key(e), refKey(s, e); got != want {
				t.Fatalf("%s: Key(%s) = %s, reference %s", what, e.Name, got, want)
			}
		}
	}
	for _, spec := range device.Generations() {
		check(New(spec, testCM(), DefaultConstraints(), core.DefaultConfig()), spec.Name)
	}

	s := New(device.IPUMK2(), costmodel.MustNewSet(device.IPUMK2()), DefaultConstraints(), core.DefaultConfig())
	s.CM.RegisterCustom("qkv", func(kernel.Task) float64 { return 1 })
	s.FusionRules = graph.DefaultRules().String()
	s.Calibration = "v3-0123456789ab"
	check(s, "custom+fusion+calibration")
}

// TestKeyConcurrentFirstUse keys from several goroutines on a searcher
// whose head memo is still empty, as a compile's workers do: every
// racing builder must publish a correct head (run under -race).
func TestKeyConcurrentFirstUse(t *testing.T) {
	ops := models.BERT(8).Ops
	s := newSearcher()
	want := make([]plancache.Key, len(ops))
	for i := range ops {
		want[i] = refKey(s, ops[i].Expr)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ops {
				if got := s.Key(ops[i].Expr); got != want[i] {
					t.Errorf("%s: concurrent Key %s, reference %s", ops[i].Name, got, want[i])
				}
			}
		}()
	}
	wg.Wait()
}

// TestGoldenKey pins the hex Key of one MatMul at IPUMK2 defaults, as
// computed by the Sprintf assembly before the key head was memoised.
// Disk records and /plans peers are addressed by these bytes: a change
// to plancache.Fingerprint's encoding, the key head or expr.Signature
// must fail here rather than silently orphan every sealed record.
func TestGoldenKey(t *testing.T) {
	const golden = "b3316fb24b59cc3e69f521ff058f0c1d7e59bbaaa6c5cc7c51d587d57cda4daa"
	e := expr.MatMul("mm", 1024, 1024, 4096, dtype.FP16)
	if got := newSearcher().Key(e).String(); got != golden {
		t.Fatalf("Key = %s, golden %s: the record encoding changed", got, golden)
	}
}

// keyDecision says, for every field of the structs Key reads, whether
// the field is part of the key ("key"), a struct to recurse into
// ("walk"), or deliberately outside it (any other value: the reason).
// A field missing here fails TestFingerprintSeparatesConfigurations, so
// a new field cannot join a struct without a decision.
var keyDecision = map[string]string{
	"Searcher.Spec":        "walk",
	"Searcher.CM":          "the custom= part covers what the key needs of it, per operator name",
	"Searcher.Cons":        "walk",
	"Searcher.Cfg":         "walk",
	"Searcher.Workers":     "plan selection is bit-identical at every width",
	"Searcher.FusionRules": "key",
	"Searcher.Calibration": "key",
	"Searcher.SampleTap":   "observational: never changes a result",
	"Searcher.Pool":        "scheduling only",
	"Searcher.cache":       "where results are stored, not what they are",
	"Searcher.head":        "the key memo itself",
	"Searcher.ftMemo":      "a memo of work, keyed by what it depends on",
	"Searcher.mu":          "in-flight bookkeeping",
	"Searcher.inflight":    "in-flight bookkeeping",

	"Spec.Name":                   "key",
	"Spec.Cores":                  "key",
	"Spec.CoreMemBytes":           "key",
	"Spec.LinkGBps":               "key",
	"Spec.ClockGHz":               "key",
	"Spec.AMPMACsPerCycle":        "key",
	"Spec.VectorFP16PerCycle":     "key",
	"Spec.LoadStoreBytesPerCycle": "key",
	"Spec.SyncNs":                 "key",
	"Spec.ExchangeStartupNs":      "key",
	"Spec.OffChipGBps":            "key",
	"Spec.Chips":                  "key",
	"Spec.InterChipGBps":          "key",
	"Spec.Interconnect":           "walk",

	"Interconnect.LinkGBps":  "key",
	"Interconnect.LatencyNs": "key",
	"Interconnect.Topology":  "key",

	"Constraints.ParallelismMin": "key",
	"Constraints.PaddingMin":     "key",

	"Config.ShiftBufBytes": "key",
}

// mutate changes a settable scalar to a different value of its kind.
func mutate(t *testing.T, v reflect.Value, name string) {
	t.Helper()
	switch v.Kind() {
	case reflect.String:
		v.SetString(v.String() + "'")
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Float64:
		v.SetFloat(v.Float()*2 + 1)
	default:
		t.Fatalf("%s: no mutation for kind %s", name, v.Kind())
	}
}

// walkKeyFields visits every field of the struct v (recursing where the
// table says walk), mutating each keyed field in place and calling
// after with its qualified name.
func walkKeyFields(t *testing.T, v reflect.Value, after func(name string)) {
	t.Helper()
	if v.Kind() == reflect.Pointer {
		v = v.Elem()
	}
	for i := 0; i < v.NumField(); i++ {
		name := v.Type().Name() + "." + v.Type().Field(i).Name
		switch d, ok := keyDecision[name]; {
		case !ok:
			t.Errorf("%s has no key decision: add it to keyDecision", name)
		case d == "walk":
			walkKeyFields(t, v.Field(i), after)
		case d == "key":
			mutate(t, v.Field(i), name)
			after(name)
		}
	}
}

// TestKeyAllocFree is the count guard of the per-probe key: at default
// tags a Key restores the pooled midstate, appends the tail into the
// pooled buffer and allocates nothing — no digest, buffer or signature
// string per call. Under the race detector sync.Pool drops a quarter of
// its Puts at random, so a call there may rebuild its hasher; over 1000
// calls that stays below one allocation per call, which AllocsPerRun's
// integer average reads as 0, while a per-call digest or signature
// string reads at least 1 in either mode.
func TestKeyAllocFree(t *testing.T) {
	s := newSearcher()
	s.FusionRules = graph.DefaultRules().String()
	s.Calibration = "v3-0123456789ab"
	fg, err := graph.Fuse(models.BERT(8), graph.DefaultRules())
	if err != nil {
		t.Fatal(err)
	}
	ops := append(models.ResNet(8).Ops, fg.Fused.Ops...)
	for i := range ops {
		e := ops[i].Expr
		if allocs := testing.AllocsPerRun(1000, func() { s.Key(e) }); allocs != 0 {
			t.Fatalf("Key(%s) allocates %.0f times per call, want 0", e.Name, allocs)
		}
	}
}

// TestKeyAfterInPlaceChange changes the Spec, the constraints and the
// config in place between calls on one Searcher: the head memo — and
// the SHA-256 midstate built with it — must follow every change.
func TestKeyAfterInPlaceChange(t *testing.T) {
	spec := *device.IPUMK2()
	s := New(&spec, testCM(), DefaultConstraints(), core.DefaultConfig())
	e := expr.MatMul("mm", 1024, 1024, 4096, dtype.FP16)
	seen := map[plancache.Key]string{}
	for _, step := range []struct {
		what   string
		change func()
	}{
		{"defaults", func() {}},
		{"Spec.SyncNs", func() { s.Spec.SyncNs++ }},
		{"Cons.PaddingMin", func() { s.Cons.PaddingMin /= 2 }},
		{"Cfg.ShiftBufBytes", func() { s.Cfg.ShiftBufBytes++ }},
	} {
		step.change()
		got, want := s.Key(e), refKey(s, e)
		if got != want {
			t.Fatalf("after %s: Key %s, reference %s", step.what, got, want)
		}
		if prev, ok := seen[got]; ok {
			t.Fatalf("after %s: key unchanged since %s", step.what, prev)
		}
		seen[got] = step.what
	}
}

// FuzzKey asserts Key == refKey over tags of 0–300 bytes — so the tail
// crosses SHA-256's 64-byte blocks and its 55/56-byte padding boundary
// at every offset behind the 498-byte head — for plain and custom
// operators of matmul, conv and fused shapes.
func FuzzKey(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 7, 7, 7})
	f.Add([]byte{1, 1, 1, 55, 0, 9, 3, 2, 1, 4})
	f.Add([]byte{2, 2, 2, 200, 255, 64, 17, 3})
	s := New(device.IPUMK2(), costmodel.MustNewSet(device.IPUMK2()), DefaultConstraints(), core.DefaultConfig())
	s.CM.RegisterCustom("custom", func(kernel.Task) float64 { return 1 })
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		name := []string{"plain", "custom"}[next()%2]
		dim := func() int { return 1 + next()*8 }
		var e *expr.Expr
		switch next() % 3 {
		case 0:
			e = expr.MatMul(name, dim(), dim(), dim(), dtype.FP16)
		case 1:
			e = expr.Conv2D(name, 1+next()%8, dim(), dim(), 7+next()%64, 7+next()%64, 1+next()%3, 1+next()%3, 1+next()%2, dtype.FP16)
		default:
			m, n := dim(), dim()
			fused, err := expr.ComposeEpilogue(expr.MatMul(name, m, dim(), n, dtype.FP16), expr.EltwiseBinary("bias", m, n, dtype.FP16), 0)
			if err != nil {
				t.Fatal(err)
			}
			e = fused
		}
		tag := func() string { return strings.Repeat(string(rune('a'+next()%26)), next()*300/255) }
		s.FusionRules, s.Calibration = tag(), tag()
		if got, want := s.Key(e), refKey(s, e); got != want {
			t.Fatalf("Key(%s) with %d-byte fusion and %d-byte calibration tags = %s, reference %s",
				e.Signature(), len(s.FusionRules), len(s.Calibration), got, want)
		}
	})
}
