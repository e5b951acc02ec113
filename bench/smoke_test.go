package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// TestSmoke runs all six workloads, untraced and traced, at about 1% of
// their operation counts: every check, every probe and the trace
// bookkeeping, in a few seconds. -short leaves out serve_mix, which
// builds and starts the t10serve child.
func TestSmoke(t *testing.T) {
	e, err := newEnv("..")
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(e.tmp)
	var names []string
	for _, n := range workloadNames {
		if n != "serve_mix" || !testing.Short() {
			names = append(names, n)
		}
	}
	var out bytes.Buffer
	reports, err := runAll(context.Background(), e, names, []bool{false, true}, smokeConfig(1), &out)
	if err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	if len(reports) != 2*len(names) {
		t.Fatalf("%d reports for %d workloads", len(reports), len(names))
	}
	for _, rep := range reports {
		defs := endToEnd
		if rep.Traced {
			defs = perLayer
		}
		if !rep.Result.Correct || rep.Result.Failed != 0 || rep.Result.Attempted < 1 {
			t.Errorf("%s traced=%v: correct=%v, %d of %d failed", rep.Workload, rep.Traced,
				rep.Result.Correct, rep.Result.Failed, rep.Result.Attempted)
		}
		if len(rep.Result.Metrics) != len(defs) {
			t.Errorf("%s traced=%v: %d metrics, want %d", rep.Workload, rep.Traced, len(rep.Result.Metrics), len(defs))
		}
		if !rep.Traced {
			for n, m := range rep.Result.Metrics {
				if m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want a positive value", rep.Workload, n, m.Value)
				}
			}
		}
	}
	// the last line of each report is the result object, with exactly
	// the four keys the driver reads
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := res[k]; !ok {
			t.Errorf("result line has no %q", k)
		}
	}
	if len(res) != 4 {
		t.Errorf("result line has %d keys, want 4", len(res))
	}
	// workloads and probes removed their cache dirs, the child is gone:
	// only the built daemon may be left in the scratch directory
	left, err := os.ReadDir(e.tmp)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range left {
		if f.Name() != "t10serve" {
			t.Errorf("left behind in the scratch directory: %s", f.Name())
		}
	}
}
