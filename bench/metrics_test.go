package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
)

type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchmarkMetric `json:"end_to_end"`
	PerLayer []benchmarkMetric `json:"per_layer"`
}

type benchmarkMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// BENCHMARK.json and the harness must declare the same metrics, or a
// run prints names the driver does not know.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
		if !nameRE.MatchString(w.Name) || len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %q: bad name or a reason of %d characters", w.Name, len(w.Why))
		}
	}
	if want := workloadNames[:gatedWorkloads]; !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, the harness gates %v", names, want)
	}
	seen := map[string]bool{}
	compare := func(kind string, file []benchmarkMetric, defs []metricDef, bounded bool) {
		if len(file) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the harness emits %d", kind, len(file), len(defs))
			return
		}
		for i, d := range defs {
			f := file[i]
			if f.Name != d.name || f.Unit != d.unit || f.Better != d.better {
				t.Errorf("%s[%d]: BENCHMARK.json has %s/%s/%s, the harness %s/%s/%s",
					kind, i, f.Name, f.Unit, f.Better, d.name, d.unit, d.better)
			}
			if !nameRE.MatchString(d.name) || !unitRE.MatchString(d.unit) {
				t.Errorf("%s: %q in %q is outside the allowed characters", kind, d.name, d.unit)
			}
			if d.better != "lower" && d.better != "higher" {
				t.Errorf("%s: %s is better %q", kind, d.name, d.better)
			}
			if seen[d.name] {
				t.Errorf("metric name %s is used twice", d.name)
			}
			seen[d.name] = true
			if bounded != (f.Bound != nil) || (bounded && (*f.Bound <= 0 || *f.Bound > 0.25)) {
				t.Errorf("%s: %s has bound %v", kind, d.name, f.Bound)
			}
		}
	}
	compare("end_to_end", bf.EndToEnd, endToEnd, true)
	compare("per_layer", bf.PerLayer, perLayer, false)
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, at most 128 are allowed", len(perLayer))
	}
}

func TestEmitInsistsOnTheDeclaredSet(t *testing.T) {
	defs := []metricDef{{name: "a", unit: "ms"}, {name: "b", unit: "count"}}
	got, err := emit(defs, map[string]float64{"a": 1.5, "b": 2})
	if err != nil || got["a"] != (metric{1.5, "ms"}) || got["b"] != (metric{2, "count"}) {
		t.Errorf("emit = %v, %v", got, err)
	}
	if _, err := emit(defs, map[string]float64{"a": 1}); err == nil {
		t.Error("a metric that was not measured went unnoticed")
	}
	if _, err := emit(defs, map[string]float64{"a": 1, "b": 2, "c": 3}); err == nil {
		t.Error("an undeclared metric went unnoticed")
	}
}
