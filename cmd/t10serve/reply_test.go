package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/device"
	"repro/internal/sema"
	"repro/t10"
)

// The two cached-probe request kinds of the benchmark's serve_mix
// workload: a 1024×1024×4096 op search and a simulated BERT-8 compile.
var probeBodies = []struct{ name, body string }{
	{"op", `{"op":{"name":"probe","m":1024,"k":1024,"n":4096}}`},
	{"model", `{"model":"BERT","batch":8,"simulate":true}`},
}

// probeHandler builds a disk-backed one-worker server and answers each
// probe once, so every later request for it is a cached probe.
func probeHandler(tb testing.TB) http.Handler {
	tb.Helper()
	pool := sema.NewShared(1, 16)
	opts := t10.DefaultOptions()
	opts.Workers = 1
	opts.SharedPool = pool
	opts.CacheDir = tb.TempDir()
	c, err := t10.New(device.IPUMK2(), opts)
	if err != nil {
		tb.Fatal(err)
	}
	h := newServer(c, pool, 0).mux()
	for _, p := range probeBodies {
		serveProbe(tb, h, p.body)
	}
	return h
}

// serveProbe sends one /compile request through the handler in process.
func serveProbe(tb testing.TB, h http.Handler, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/compile", strings.NewReader(body)))
	if rec.Code != http.StatusOK {
		tb.Fatalf("%s: %d %s", body, rec.Code, rec.Body)
	}
	return rec
}

// BenchmarkProbeReply times one cached probe through the /compile
// handler: request decode, the plan-cache answer, the telemetry block
// and the encoded reply, without a socket.
func BenchmarkProbeReply(b *testing.B) {
	h := probeHandler(b)
	for _, p := range probeBodies {
		b.Run(p.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				serveProbe(b, h, p.body)
			}
		})
	}
}

// TestProbeReplyAllocCeiling is the count guard of the served probe
// path: allocations per cached probe through the /compile handler,
// request decode and the recorder's own included. The hand-encoded
// compact reply took them from 73 (op) and 380 (model) to 59 and 366,
// and pricing admission inside the compiler — from the searches the
// request then runs, instead of a second validate-and-key pass over
// every op — to the ceilings below; a reply encoded by reflection
// again, or indented, or a request keyed twice, shows here.
func TestProbeReplyAllocCeiling(t *testing.T) {
	h := probeHandler(t)
	// raceSlack: -race drops sync.Pool Puts at random, so a request may
	// regrow a fresh reply buffer and the searcher's hashers (one per op
	// search); measured +5..7 (op) and +22..26 (BERT-8's 13 ops)
	for i, tc := range []struct{ ceiling, raceSlack float64 }{{58, 10}, {355, 34}} {
		p, ceiling := probeBodies[i], tc.ceiling
		if raceEnabled {
			ceiling += tc.raceSlack
		}
		allocs := testing.AllocsPerRun(50, func() { serveProbe(t, h, p.body) })
		if allocs > ceiling {
			t.Errorf("cached probe_%s: %.0f allocs per request, ceiling %.0f", p.name, allocs, ceiling)
		} else {
			t.Logf("cached probe_%s: %.0f allocs per request (ceiling %.0f)", p.name, allocs, ceiling)
		}
	}
}

// TestProbeReplyNotChunked checks a cached model reply goes out whole:
// a Content-Length equal to the body and no chunked transfer coding,
// also for a reply past net/http's 2 KB response buffer, which it would
// otherwise send chunked.
func TestProbeReplyNotChunked(t *testing.T) {
	ts := httptest.NewServer(probeHandler(t))
	defer ts.Close()
	const resnet = `{"model":"ResNet","batch":1,"simulate":true}`
	for _, body := range []string{probeBodies[1].body, resnet, resnet} {
		resp, err := http.Post(ts.URL+"/compile", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %s (%v)", body, resp.Status, err)
		}
		if resp.ContentLength != int64(len(got)) || len(resp.TransferEncoding) != 0 {
			t.Errorf("%s: Content-Length %d, Transfer-Encoding %v for a %d-byte body",
				body, resp.ContentLength, resp.TransferEncoding, len(got))
		}
		if body == resnet && len(got) <= 2048 {
			t.Errorf("%s: %d-byte reply no longer exceeds net/http's 2 KB buffer", body, len(got))
		}
	}
}

// TestWriteJSONNonFiniteIs500 checks a reply that cannot be encoded
// answers 500 with a JSON error, never a 200 with an empty body, and is
// counted in encode_errors.
func TestWriteJSONNonFiniteIs500(t *testing.T) {
	s := newServer(nil, nil, 0)
	for _, v := range []any{
		&searchResponse{Op: "nan", SearchMs: math.NaN()},
		&compileResponse{Model: "inf", Plans: []opPlanJSON{{Name: "x", EstUs: math.Inf(1)}}},
	} {
		rec := httptest.NewRecorder()
		s.writeJSON(rec, v)
		var body map[string]string
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || rec.Code != http.StatusInternalServerError ||
			body["error"] == "" || rec.Header().Get("Content-Type") != "application/json" {
			t.Errorf("%T: %d %q (%v), want a 500 JSON error", v, rec.Code, rec.Body, err)
		}
	}
	if n := s.stats.EncodeErrors.Load(); n != 2 {
		t.Errorf("encode_errors = %d, want 2", n)
	}
}

// FuzzReplyEncoding is the wire oracle of the hand appenders: for any
// reply, the bytes must equal json.NewEncoder's compact output, newline
// included, and the two must fail on the same values.
func FuzzReplyEncoding(f *testing.F) {
	names := []string{"mm", "<a&b>", `q"u\o`, "ls\u2028ps\u2029", "nul\x00\x1f", "bad\xff\xc3utf8", "\ufffd", ""}
	floats := []float64{0, math.Copysign(0, -1), 5e-324, 1e-7, 999999.999, 1e21, -1e21, 263.4409114575888,
		math.NaN(), math.Inf(-1)}
	for i, name := range names {
		for j, x := range floats {
			// shape walks nil, empty and filled slices and a nil
			// telemetry block across the seeds
			f.Add(name, x, floats[(i+j+1)%len(floats)], i-j, uint8(i*len(floats)+j)*5)
		}
	}
	f.Fuzz(func(t *testing.T, name string, x, y float64, n int, shape uint8) {
		fop := fuzzRows(int(shape>>2&3)-1, func(i int) int { return n - i })
		var tel *telemetryJSON
		if shape&16 == 0 {
			tel = &telemetryJSON{AdmissionWaitUs: int64(n), CacheProbeUs: 1, WallUs: -int64(n),
				AdmissionWeight: n & 3, Route: name}
			tel.RouteMemory, tel.RouteCold, tel.FusedGroups, tel.FusedOps = n, -n, n&1, n&2
			tel.Filtered, tel.Priced, tel.Pruned, tel.Seeded = n&4, n&8, n&16, n&32
			tel.CutSubtrees, tel.CutLeaves = n&64, n&128
		}
		sr := &searchResponse{Op: name, Filtered: n, SearchMs: x, Telemetry: tel,
			Pareto: fuzzRows(int(shape&3)-1, func(i int) paretoPlanJSON {
				return paretoPlanJSON{Fop: fop, Steps: n + i, MemKB: x, EstUs: y, ShiftKB: x * y}
			})}
		cr := &compileResponse{Batch: n & 1, Ops: n, CompileMs: y, IdleMemPct: x, LatencyMs: y * float64(n&1),
			Telemetry: tel, Chips: n & 2, Microbatches: n & 4, TransferMs: x, BubbleMs: -y,
			Plans: fuzzRows(int(shape&3)-1, func(i int) opPlanJSON {
				return opPlanJSON{Name: name, Repeat: i, Fop: fop, Steps: n, ActiveKB: x, IdleKB: y, EstUs: x + y, SetupUs: x / 3}
			}),
			Shards: fuzzRows(int(shape>>5&3)-1, func(i int) shardJSON {
				return shardJSON{Stage: i, StartOp: n, EndOp: n + i, Ops: i, Split: n & 3, IdleMemPct: y,
					GatherUs: x * float64(i&1), LatencyMs: y * float64(n&1)}
			})}
		if shape&128 != 0 {
			cr.Model = name
		}
		replies := []jsonAppender{sr, cr}
		if tel != nil {
			replies = append(replies, tel)
		}
		for _, v := range replies {
			var want bytes.Buffer
			wantErr := json.NewEncoder(&want).Encode(v)
			var e replyEncoder
			e.encode(v)
			if (e.err != nil) != (wantErr != nil) {
				t.Fatalf("%T: appender error %v, encoding/json error %v", v, e.err, wantErr)
			}
			if wantErr == nil && !bytes.Equal(e.b, want.Bytes()) {
				t.Fatalf("%T:\n got %s\nwant %s", v, e.b, want.Bytes())
			}
		}
	})
}

// fuzzRows builds a slice of k rows: nil for k < 0, empty for k == 0.
func fuzzRows[T any](k int, row func(i int) T) []T {
	if k < 0 {
		return nil
	}
	v := make([]T, k)
	for i := range v {
		v[i] = row(i)
	}
	return v
}
