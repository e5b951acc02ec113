package main

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"
)

// jsonAppender is a reply that encodes itself, as the /compile 200s do:
// by hand, not by encoding/json's reflection, which had become most of a
// cached probe's cost. Each writes exactly json.NewEncoder's bytes for
// its struct — key order, omitempty, null for a nil slice, floats,
// string escaping — and FuzzReplyEncoding checks it byte for byte.
type jsonAppender interface{ appendJSON(e *replyEncoder) }

// replyEncoder accumulates one reply. Each field method appends a key —
// the literal `,"name":` with its separator — and the value, and returns
// the encoder so a row's fields chain. A non-finite float sets err: it
// fails the encode, as it fails encoding/json's.
type replyEncoder struct {
	b   []byte
	err error
}

// encode appends v as compact JSON and a newline, the bytes
// json.NewEncoder(w).Encode(v) writes: by v's appender when it has one,
// else by json.Marshal.
func (e *replyEncoder) encode(v any) {
	if a, ok := v.(jsonAppender); ok {
		a.appendJSON(e)
	} else {
		var b []byte
		b, e.err = json.Marshal(v)
		e.b = append(e.b, b...)
	}
	e.b = append(e.b, '\n')
}

func (e *replyEncoder) raw(s string) *replyEncoder { e.b = append(e.b, s...); return e }

func (e *replyEncoder) int(key string, n int) *replyEncoder { return e.int64(key, int64(n)) }

func (e *replyEncoder) int64(key string, n int64) *replyEncoder {
	e.b = strconv.AppendInt(append(e.b, key...), n, 10)
	return e
}

// intOmit and floatOmit are `omitempty` fields (−0 is empty too).
func (e *replyEncoder) intOmit(key string, n int) *replyEncoder {
	if n != 0 {
		e.int(key, n)
	}
	return e
}

func (e *replyEncoder) floatOmit(key string, f float64) *replyEncoder {
	if f != 0 {
		e.float(key, f)
	}
	return e
}

// float formats f as encoding/json does: 'f' unless |f| < 1e-6 or
// |f| ≥ 1e21, then 'e' with a negative exponent unpadded (e-9, not e-09).
func (e *replyEncoder) float(key string, f float64) *replyEncoder {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		e.err = fmt.Errorf("json: unsupported value: %v", f)
		return e
	}
	abs, format := math.Abs(f), byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.b = strconv.AppendFloat(append(e.b, key...), f, format, -1, 64)
	if n := len(e.b); format == 'e' && e.b[n-4] == 'e' && e.b[n-3] == '-' && e.b[n-2] == '0' {
		e.b = append(e.b[:n-2], e.b[n-1])
	}
	return e
}

// str appends s quoted: as it stands when it holds nothing encoding/json
// escapes (controls, `"`, `\`, `<>&`, any non-ASCII byte: U+2028, U+2029,
// invalid UTF-8), else by encoding/json — op names come from the client.
func (e *replyEncoder) str(key, s string) *replyEncoder {
	e.raw(key)
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			e.b = append(e.b, q...)
			return e
		}
	}
	e.b = append(append(append(e.b, '"'), s...), '"')
	return e
}

// telemetry appends the `omitempty` telemetry block.
func (e *replyEncoder) telemetry(t *telemetryJSON) *replyEncoder {
	if t != nil {
		t.appendJSON(e.raw(`,"telemetry":`))
	}
	return e
}

// rows appends a slice of reply rows, null when nil.
func rows[T any](e *replyEncoder, key string, v []T, row func(*T, *replyEncoder)) *replyEncoder {
	if e.raw(key); v == nil {
		return e.raw("null")
	}
	e.raw("[")
	for i := range v {
		if i > 0 {
			e.raw(",")
		}
		row(&v[i], e)
	}
	return e.raw("]")
}

// intRow is one element of an []int.
func intRow(n *int, e *replyEncoder) { e.b = strconv.AppendInt(e.b, int64(*n), 10) }

func (r *searchResponse) appendJSON(e *replyEncoder) {
	rows(e.str(`{"op":`, r.Op).int(`,"filtered":`, r.Filtered), `,"pareto":`, r.Pareto, (*paretoPlanJSON).appendJSON).
		float(`,"search_ms":`, r.SearchMs).telemetry(r.Telemetry).raw("}")
}

func (p *paretoPlanJSON) appendJSON(e *replyEncoder) {
	rows(e, `{"fop":`, p.Fop, intRow).int(`,"steps":`, p.Steps).
		float(`,"mem_kb":`, p.MemKB).float(`,"est_us":`, p.EstUs).float(`,"shift_kb":`, p.ShiftKB).raw("}")
}

func (r *compileResponse) appendJSON(e *replyEncoder) {
	// omitempty model and batch carry their comma: ops always follows
	e.raw("{")
	if r.Model != "" {
		e.str(`"model":`, r.Model).raw(",")
	}
	if r.Batch != 0 {
		e.int(`"batch":`, r.Batch).raw(",")
	}
	e.int(`"ops":`, r.Ops).float(`,"compile_ms":`, r.CompileMs).float(`,"idle_mem_pct":`, r.IdleMemPct).
		floatOmit(`,"latency_ms":`, r.LatencyMs)
	rows(e, `,"plans":`, r.Plans, (*opPlanJSON).appendJSON).telemetry(r.Telemetry).
		intOmit(`,"chips":`, r.Chips).intOmit(`,"microbatches":`, r.Microbatches)
	if len(r.Shards) > 0 {
		rows(e, `,"shards":`, r.Shards, (*shardJSON).appendJSON)
	}
	e.floatOmit(`,"transfer_ms":`, r.TransferMs).floatOmit(`,"bubble_ms":`, r.BubbleMs).raw("}")
}

func (p *opPlanJSON) appendJSON(e *replyEncoder) {
	rows(e.str(`{"name":`, p.Name).int(`,"repeat":`, p.Repeat), `,"fop":`, p.Fop, intRow).
		int(`,"steps":`, p.Steps).float(`,"active_kb":`, p.ActiveKB).float(`,"idle_kb":`, p.IdleKB).
		float(`,"est_us":`, p.EstUs).float(`,"setup_us":`, p.SetupUs).raw("}")
}

func (s *shardJSON) appendJSON(e *replyEncoder) {
	e.int(`{"stage":`, s.Stage).int(`,"start_op":`, s.StartOp).int(`,"end_op":`, s.EndOp).
		int(`,"ops":`, s.Ops).int(`,"split":`, s.Split).float(`,"idle_mem_pct":`, s.IdleMemPct).
		floatOmit(`,"gather_us":`, s.GatherUs).floatOmit(`,"latency_ms":`, s.LatencyMs).raw("}")
}

func (t *telemetryJSON) appendJSON(e *replyEncoder) {
	e.int64(`{"admission_wait_us":`, t.AdmissionWaitUs).int64(`,"cache_probe_us":`, t.CacheProbeUs).
		int64(`,"cold_search_us":`, t.ColdSearchUs).int64(`,"reconcile_us":`, t.ReconcileUs).
		int64(`,"wall_us":`, t.WallUs).int(`,"admission_weight":`, t.AdmissionWeight)
	if t.Route != "" {
		e.str(`,"route":`, t.Route)
	}
	c := &t.Counts
	e.int(`,"route_memory":`, c.RouteMemory).int(`,"route_disk":`, c.RouteDisk).
		int(`,"route_remote":`, c.RouteRemote).int(`,"route_singleflight":`, c.RouteFlightWait).
		int(`,"route_cold":`, c.RouteCold).intOmit(`,"fused_groups":`, c.FusedGroups).
		intOmit(`,"fused_ops":`, c.FusedOps).intOmit(`,"filtered":`, c.Filtered).
		intOmit(`,"priced":`, c.Priced).intOmit(`,"pruned":`, c.Pruned).intOmit(`,"seeded":`, c.Seeded).
		intOmit(`,"cut_subtrees":`, c.CutSubtrees).intOmit(`,"cut_leaves":`, c.CutLeaves).raw("}")
}
