package search

import (
	"fmt"
	"reflect"
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
		if s.CM.CustomMonotone(e.Name) {
			custom += "|monotone"
		}
	}
	return plancache.Fingerprint(
		fmt.Sprintf("t10-plan-v%d", resultFormat),
		"gen="+s.Spec.GenerationKey(),
		fmt.Sprintf("%#v", *s.Spec),
		fmt.Sprintf("cons|par=%g|pad=%g|ft=%d", s.Cons.ParallelismMin, s.Cons.PaddingMin, s.Cons.MaxFtCombos),
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
// default fusion rules, on every device generation, for custom-priced
// operators (plain and monotone) and under a calibration tag.
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
	s.CM.RegisterCustomMonotone("ffn1", func(kernel.Task) float64 { return 1 })
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
	"Searcher.ftMemo":      "a memo of work, keyed by what it depends on (MaxFtCombos is keyed under Cons)",
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
	"Constraints.MaxFtCombos":    "key",

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
