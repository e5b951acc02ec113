package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call the harness made into a layer. Spans are kept
// in memory and written out when the run ends; spans of one request
// share Request, and Parent names the span that caused this one (-1 for
// a root). N is how many back-to-back calls the span covers — probes of
// sub-microsecond functions time a batch, not one call.
type span struct {
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"` // since the tracer's epoch
	End     int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Request int    `json:"request_id"`
	N       int    `json:"n"`
}

// tracer records spans. A nil *tracer records nothing, so the untraced
// pass runs the same harness code with the recorder switched off.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, parent, request int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		Name: name, Start: int64(time.Since(t.epoch)),
		Parent: parent, Request: request, N: 1,
	})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) { t.endN(id, 1) }

// endN closes a span that covered n back-to-back calls.
func (t *tracer) endN(id, n int) {
	if t == nil || id < 0 {
		return
	}
	end := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id].End = end
	t.spans[id].N = n
	t.mu.Unlock()
}

// timeN runs f n times inside one span.
func (t *tracer) timeN(parent int, name string, n int, f func()) {
	id := t.begin(name, parent, -1)
	for i := 0; i < n; i++ {
		f()
	}
	t.endN(id, n)
}

// perCallNs returns, for every closed span with the name, its duration
// divided by the calls it covered.
func (t *tracer) perCallNs(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for i := range t.spans {
		s := &t.spans[i]
		if s.Name == name && s.End >= s.Start && s.N > 0 {
			out = append(out, float64(s.End-s.Start)/float64(s.N))
		}
	}
	return out
}

// meanNs is the call-weighted mean duration of the spans with the name
// (total time ÷ total calls); 0 when there are none.
func (t *tracer) meanNs(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var total, calls float64
	for i := range t.spans {
		s := &t.spans[i]
		if s.Name == name && s.End >= s.Start {
			total += float64(s.End - s.Start)
			calls += float64(s.N)
		}
	}
	if calls == 0 {
		return 0
	}
	return total / calls
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its child spans cover. Children running
// concurrently are counted once (the union of their intervals), and a
// child reaching outside its parent is clipped to it.
func selfTimes(spans []span) []int64 {
	type iv struct{ lo, hi int64 }
	children := make(map[int][]iv)
	for _, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			children[s.Parent] = append(children[s.Parent], iv{s.Start, s.End})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start
		ivs := children[i]
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		covered, upTo := int64(0), s.Start
		for _, c := range ivs {
			lo, hi := c.lo, c.hi
			if lo < upTo {
				lo = upTo
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				upTo = hi
			}
		}
		self[i] -= covered
	}
	return self
}

// stage is one telemetry stage the compiler reported for a call.
type stage struct {
	name string
	d    time.Duration
}

// addStages records the stages a call reported about itself as child
// spans of the call's span. The compiler reports durations of disjoint
// sequential phases, not their start times, so the children are laid
// back to back from the parent's start; what the parent has left over
// as self time is the share of the call no stage accounts for.
func (t *tracer) addStages(parent int, stages ...stage) {
	if t == nil || parent < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	at := t.spans[parent].Start
	req := t.spans[parent].Request
	for _, st := range stages {
		t.spans = append(t.spans, span{
			Name: st.name, Start: at, End: at + int64(st.d),
			Parent: parent, Request: req, N: 1,
		})
		at += int64(st.d)
	}
}

// stagePrefix names the spans addStages records.
const stagePrefix = "stage."

// stageShares returns, over the calls that reported stages, each
// stage's share of those calls' wall, keyed by the stage's name without
// the prefix, and under "gap" the share no stage accounts for: the
// calls' self time.
func (t *tracer) stageShares() map[string]float64 {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	self := selfTimes(spans)
	staged := make(map[int]bool)
	sums := make(map[string]float64)
	for _, s := range spans {
		if name, ok := strings.CutPrefix(s.Name, stagePrefix); ok {
			staged[s.Parent] = true
			sums[name] += float64(s.End - s.Start)
		}
	}
	var wall float64
	for i := range staged {
		sums["gap"] += float64(self[i])
		wall += float64(spans[i].End - spans[i].Start)
	}
	for name := range sums {
		sums[name] /= wall
	}
	return sums
}

// writeFile dumps every span as a JSON array.
func (t *tracer) writeFile(path string) error {
	t.mu.Lock()
	b, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
