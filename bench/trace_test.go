package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "request", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 30, End: 60, Parent: 0},  // overlaps a: the union 10..60 is covered once
		{Name: "c", Start: 90, End: 120, Parent: 0}, // reaches past its parent: clipped to 90..100
		{Name: "a1", Start: 15, End: 25, Parent: 1},
		{Name: "lone", Start: 200, End: 230, Parent: -1},
	}
	want := []int64{100 - 50 - 10, 30 - 10, 30, 30, 10, 30}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", -1, 0)
	tr.end(id)
	tr.addStages(id, stage{"stage.cold_search", time.Millisecond})
	if id != -1 {
		t.Errorf("nil tracer handed out span %d", id)
	}
}

func TestStagesAndGapShare(t *testing.T) {
	tr := newTracer()
	call := tr.begin("call", -1, 3)
	tr.end(call)
	tr.spans[call].Start, tr.spans[call].End = 1000, 2000
	tr.addStages(call,
		stage{stagePrefix + "cold_search", 600},
		stage{stagePrefix + "reconcile", 150})
	other := tr.begin("unstaged", -1, 4)
	tr.end(other)

	if n := len(tr.spans); n != 4 {
		t.Fatalf("%d spans, want 4", n)
	}
	cs, rc := tr.spans[1], tr.spans[2]
	if cs.Start != 1000 || cs.End != 1600 || rc.Start != 1600 || rc.End != 1750 {
		t.Errorf("stages laid at %d..%d and %d..%d, want back to back from the call's start", cs.Start, cs.End, rc.Start, rc.End)
	}
	if cs.Parent != call || cs.Request != 3 {
		t.Errorf("stage has parent %d request %d, want %d and 3", cs.Parent, cs.Request, call)
	}
	// 250 of the call's 1000 ns are in no stage; the unstaged span is not counted
	got := tr.stageShares()
	want := map[string]float64{"cold_search": 0.6, "reconcile": 0.15, "gap": 0.25}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("stage shares = %v, want %v", got, want)
	}
	if got := tr.meanNs(stagePrefix + "cold_search"); got != 600 {
		t.Errorf("mean cold_search = %v, want 600", got)
	}
}

func TestTimeNAndTraceFile(t *testing.T) {
	tr := newTracer()
	calls := 0
	tr.timeN(-1, "batch", 8, func() { calls++ })
	if calls != 8 || tr.spans[0].N != 8 {
		t.Fatalf("timeN ran %d calls, span covers %d, want 8 and 8", calls, tr.spans[0].N)
	}
	tr.spans[0].Start, tr.spans[0].End = 0, 800
	if got := tr.perCallNs("batch"); len(got) != 1 || got[0] != 100 {
		t.Errorf("per-call time = %v, want [100]", got)
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := tr.writeFile(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back []map[string]any
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"name", "start_ns", "end_ns", "parent", "request_id"} {
		if _, ok := back[0][k]; !ok {
			t.Errorf("written span has no %q field: %v", k, back[0])
		}
	}
}
