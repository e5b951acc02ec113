package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/device"
	"repro/internal/models"
)

// buildServe compiles cmd/t10serve into the scratch directory. It runs
// once per process, before any set-up clock starts: building is not
// part of starting a daemon.
func buildServe(ctx context.Context, e *env) error {
	bin := filepath.Join(e.tmp, "t10serve")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/t10serve")
	cmd.Dir = e.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build ./cmd/t10serve: %v\n%s", err, out)
	}
	e.serveBin = bin
	return nil
}

// child is one running t10serve.
type child struct {
	cmd       *exec.Cmd
	base      string // http://127.0.0.1:port
	log       bytes.Buffer
	exited    chan struct{} // closed once the process has been waited for
	startupMs float64       // exec → first /healthz 200
}

const (
	// serveClients keep-alive clients drive the child: while one heavy
	// request holds the daemon's whole budget the other client's request
	// queues behind it, and the daemon's one core never idles between
	// requests.
	serveClients    = 2
	serveQueue      = 64
	healthPoll      = time.Millisecond
	startupDeadline = 10 * time.Second
	stopGrace       = 5 * time.Second
)

// startChild launches t10serve on a free loopback port and waits for
// /healthz. The port is found by binding :0 and releasing it; if
// another process takes it in between, the child exits and the start is
// retried on a new port.
func startChild(ctx context.Context, e *env, cacheDir string, hc *http.Client) (*child, error) {
	var lastErr error
	for attempt := 0; attempt < 3 && ctx.Err() == nil; attempt++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		addr := l.Addr().String()
		l.Close()

		c := &child{base: "http://" + addr, exited: make(chan struct{})}
		c.cmd = exec.Command(e.serveBin,
			"-addr", addr,
			"-workers", strconv.Itoa(workers),
			"-queue", strconv.Itoa(serveQueue),
			"-cachedir", cacheDir,
			"-cache-salt", cacheSalt)
		c.cmd.Env = append(os.Environ(),
			"GOMAXPROCS="+strconv.Itoa(childProcs), "GOGC="+strconv.Itoa(gcPercent))
		c.cmd.Stderr = &c.log
		t0 := time.Now()
		if err := c.cmd.Start(); err != nil {
			return nil, err
		}
		go func() {
			c.cmd.Wait()
			close(c.exited)
		}()
		if lastErr = c.waitHealthy(ctx, hc, t0); lastErr == nil {
			return c, nil
		}
		c.stop()
	}
	return nil, lastErr
}

// waitHealthy polls /healthz until the first 200.
func (c *child) waitHealthy(ctx context.Context, hc *http.Client, t0 time.Time) error {
	for time.Since(t0) < startupDeadline {
		if resp, err := hc.Get(c.base + "/healthz"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				c.startupMs = float64(time.Since(t0)) / 1e6
				return nil
			}
		}
		select {
		case <-c.exited:
			return fmt.Errorf("t10serve exited during start-up: %s", c.log.String())
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(healthPoll):
		}
	}
	return fmt.Errorf("t10serve not healthy after %v: %s", startupDeadline, c.log.String())
}

// stop ends the child and returns once it has exited: SIGTERM for the
// daemon's own drain, SIGKILL if that takes longer than stopGrace.
func (c *child) stop() {
	if c == nil || c.cmd.Process == nil {
		return
	}
	c.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-c.exited:
	case <-time.After(stopGrace):
		c.cmd.Process.Kill()
		<-c.exited
	}
}

// serveStats are the /stats counters the benchmark reads.
type serveStats struct {
	Rejected        int64 `json:"rejected"`
	Cancelled       int64 `json:"cancelled"`
	EncodeErrors    int64 `json:"encode_errors"`
	ProbeRequests   int64 `json:"probe_requests"`
	HeavyRequests   int64 `json:"heavy_requests"`
	RouteMemory     int64 `json:"route_memory"`
	RouteDisk       int64 `json:"route_disk"`
	RouteCold       int64 `json:"route_cold"`
	RouteFlightWait int64 `json:"route_singleflight"`
}

func (s serveStats) sub(o serveStats) serveStats {
	return serveStats{
		Rejected: s.Rejected - o.Rejected, Cancelled: s.Cancelled - o.Cancelled,
		EncodeErrors:  s.EncodeErrors - o.EncodeErrors,
		ProbeRequests: s.ProbeRequests - o.ProbeRequests, HeavyRequests: s.HeavyRequests - o.HeavyRequests,
		RouteMemory: s.RouteMemory - o.RouteMemory, RouteDisk: s.RouteDisk - o.RouteDisk,
		RouteCold: s.RouteCold - o.RouteCold, RouteFlightWait: s.RouteFlightWait - o.RouteFlightWait,
	}
}

// served is what the client keeps of one response until the timed loop
// is over; parsing waits so that it does not compete with the daemon
// for the two cores.
type served struct {
	cls    int
	status int
	body   []byte
	wall   time.Duration
	span   int
}

// Request classes of serve_mix, by class index (see serveClasses).
const (
	clsProbeOp = iota
	clsProbeModel
	clsColdOp
)

// probeOpShape is the pre-warmed single-operator request.
var probeOpShape = [3]int{1024, 1024, 4096}

const probeModel, probeModelBatch = "BERT", 8

func opBody(name string, s [3]int) []byte {
	return []byte(fmt.Sprintf(`{"op":{"name":%q,"m":%d,"k":%d,"n":%d}}`, name, s[0], s[1], s[2]))
}

// serveWorkload drives a t10serve child over loopback HTTP.
type serveWorkload struct {
	env    *env
	spec   *device.Spec
	hc     *http.Client
	sched  []uint8
	bodies [][]byte // per request index, encoded before the clock starts
	cold   [][3]int // the distinct cold_op shapes, in schedule order

	cacheDir string
	child    *child
	modelOps int // operators in the probe model's graph

	mu      sync.Mutex
	pending []served

	// what settle learned from the responses of the last segment
	seg serveSegment
	// the pre-warm responses: the reference later answers must equal
	refOp, refModel []byte
	lastOp          []byte
	lastModel       []byte
}

// serveSegment is what the responses of one timed segment carried.
type serveSegment struct {
	admissionUs []float64 // telemetry.admission_wait_us of every response
	overheadUs  []float64 // client wall − server wall, probe classes
	bytes       [3][]float64
}

func newServeWorkload(e *env) *serveWorkload {
	tr := &http.Transport{MaxIdleConnsPerHost: serveClients, DisableCompression: true}
	return &serveWorkload{
		env: e, spec: device.IPUMK2(),
		hc: &http.Client{Transport: tr, Timeout: 2 * time.Minute},
	}
}

func (w *serveWorkload) classes() []class  { return serveClasses }
func (w *serveWorkload) clients() int      { return serveClients }
func (w *serveWorkload) maxRate() float64  { return 2000 }
func (w *serveWorkload) schedule() []uint8 { return w.sched }
func (w *serveWorkload) prepare(int) error { return nil }

func (w *serveWorkload) setup(ctx context.Context, seed int64, blocks int) error {
	w.sched = genSchedule(seed, serveClasses, blocks)
	nCold := 0
	for _, c := range w.sched {
		if c == clsColdOp {
			nCold++
		}
	}
	var err error
	if w.cold, err = genColdShapes(seed, nCold); err != nil {
		return err
	}
	probes := [][]byte{
		clsProbeOp:    opBody("probe", probeOpShape),
		clsProbeModel: []byte(fmt.Sprintf(`{"model":%q,"batch":%d,"simulate":true}`, probeModel, probeModelBatch)),
	}
	w.bodies = make([][]byte, len(w.sched))
	nCold = 0
	for i, c := range w.sched {
		if c == clsColdOp {
			w.bodies[i] = opBody("cold", w.cold[nCold])
			nCold++
		} else {
			w.bodies[i] = probes[c]
		}
	}
	m, err := models.Build(probeModel, probeModelBatch)
	if err != nil {
		return err
	}
	w.modelOps = len(m.Ops)

	if w.cacheDir, err = w.env.mkTemp("serve-"); err != nil {
		return err
	}
	if w.child, err = startChild(ctx, w.env, w.cacheDir, w.hc); err != nil {
		return err
	}
	// pre-warm the two probe requests. The first answer is the cold one
	// (it carries the search counters); the second is what every timed
	// probe must get back, and so the reference.
	for cls, ref := range []*[]byte{clsProbeOp: &w.refOp, clsProbeModel: &w.refModel} {
		for pass := 0; pass < 2; pass++ {
			status, body, err := w.post(ctx, probes[cls])
			if err != nil || status != http.StatusOK {
				return fmt.Errorf("pre-warm of %s: status %d, %v", serveClasses[cls].name, status, err)
			}
			*ref = body
		}
	}
	w.lastOp, w.lastModel = nil, nil
	return nil
}

func (w *serveWorkload) teardown() {
	w.child.stop()
	w.child = nil
	w.hc.CloseIdleConnections()
	if w.cacheDir != "" {
		os.RemoveAll(w.cacheDir)
		w.cacheDir = ""
	}
	w.pending = nil
}

func (w *serveWorkload) post(ctx context.Context, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.child.base+"/compile", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

func (w *serveWorkload) do(ctx context.Context, i, cls int, tr *tracer, parent int) (any, time.Duration, error) {
	t0 := time.Now()
	sp := tr.begin("http.compile."+serveClasses[cls].name, parent, i)
	status, b, err := w.post(ctx, w.bodies[i])
	tr.end(sp)
	d := time.Since(t0)
	if err != nil {
		return nil, d, err
	}
	return served{cls: cls, status: status, body: b, wall: d, span: sp}, d, nil
}

// check only looks at the status; the body waits for settle.
func (w *serveWorkload) check(cls int, res any) error {
	s := res.(served)
	if s.status != http.StatusOK {
		return fmt.Errorf("status %d: %s", s.status, bytes.TrimSpace(s.body))
	}
	w.mu.Lock()
	w.pending = append(w.pending, s)
	w.mu.Unlock()
	return nil
}

// servedBody is the union of the two /compile response shapes, as far
// as the checks read them.
type servedBody struct {
	Op         string  `json:"op"`
	Model      string  `json:"model"`
	Ops        int     `json:"ops"`
	LatencyMs  float64 `json:"latency_ms"`
	IdleMemPct float64 `json:"idle_mem_pct"`
	Pareto     []struct {
		MemKB float64 `json:"mem_kb"`
		EstUs float64 `json:"est_us"`
	} `json:"pareto"`
	Plans []struct {
		ActiveKB float64 `json:"active_kb"`
		IdleKB   float64 `json:"idle_kb"`
	} `json:"plans"`
	Telemetry *struct {
		AdmissionWaitUs int64  `json:"admission_wait_us"`
		CacheProbeUs    int64  `json:"cache_probe_us"`
		ColdSearchUs    int64  `json:"cold_search_us"`
		ReconcileUs     int64  `json:"reconcile_us"`
		WallUs          int64  `json:"wall_us"`
		Route           string `json:"route"`
		RouteCold       int    `json:"route_cold"`
	} `json:"telemetry"`
}

// checkBody verifies one 200 response against what its class must get.
func (w *serveWorkload) checkBody(cls int, b *servedBody) error {
	t := b.Telemetry
	if t == nil {
		return fmt.Errorf("no telemetry block")
	}
	if sum := t.AdmissionWaitUs + t.CacheProbeUs + t.ColdSearchUs + t.ReconcileUs; sum > t.WallUs+4 {
		// each stage is truncated to whole microseconds on its own
		return fmt.Errorf("stage sum %dus exceeds wall %dus", sum, t.WallUs)
	}
	switch cls {
	case clsProbeOp:
		if b.Op != "probe" || len(b.Pareto) == 0 || t.RouteCold != 0 || t.Route == "cold" {
			return fmt.Errorf("probe_op answered op=%q pareto=%d route=%q", b.Op, len(b.Pareto), t.Route)
		}
	case clsProbeModel:
		if b.Ops != w.modelOps || len(b.Plans) != w.modelOps || t.RouteCold != 0 || b.LatencyMs <= 0 {
			return fmt.Errorf("probe_model answered ops=%d plans=%d route_cold=%d latency=%v",
				b.Ops, len(b.Plans), t.RouteCold, b.LatencyMs)
		}
	case clsColdOp:
		if b.Op != "cold" || len(b.Pareto) == 0 || t.Route != "cold" {
			return fmt.Errorf("cold_op answered op=%q pareto=%d route=%q", b.Op, len(b.Pareto), t.Route)
		}
	}
	return nil
}

// normalizedLen is the size of a response with its clock readings
// removed: what is left is the plans and counts, which identical
// requests must get back identically.
func normalizedLen(body []byte) (int, error) {
	var v map[string]any
	if err := json.Unmarshal(body, &v); err != nil {
		return 0, err
	}
	delete(v, "compile_ms")
	delete(v, "search_ms")
	if t, ok := v["telemetry"].(map[string]any); ok {
		for k := range t {
			if strings.HasSuffix(k, "_us") {
				delete(t, k)
			}
		}
	}
	out, err := json.Marshal(v)
	return len(out), err
}

func (w *serveWorkload) settle(tr *tracer) (int, error) {
	w.mu.Lock()
	pending := w.pending
	w.pending = nil
	w.mu.Unlock()

	w.seg = serveSegment{}
	failed := 0
	var firstErr error
	fail := func(err error) {
		failed++
		if firstErr == nil {
			firstErr = err
		}
	}
	refLen := [3]int{clsColdOp: -1}
	var err error
	if refLen[clsProbeOp], err = normalizedLen(w.refOp); err != nil {
		return 0, err
	}
	if refLen[clsProbeModel], err = normalizedLen(w.refModel); err != nil {
		return 0, err
	}
	for _, s := range pending {
		var b servedBody
		if err := json.Unmarshal(s.body, &b); err != nil {
			fail(fmt.Errorf("%s: unparseable body: %v", serveClasses[s.cls].name, err))
			continue
		}
		if err := w.checkBody(s.cls, &b); err != nil {
			fail(err)
			continue
		}
		n, err := normalizedLen(s.body)
		if err != nil {
			fail(err)
			continue
		}
		if want := refLen[s.cls]; want >= 0 && n != want {
			fail(fmt.Errorf("%s: normalised body is %d bytes, the pre-warm answer was %d",
				serveClasses[s.cls].name, n, want))
			continue
		}
		t := b.Telemetry
		w.seg.bytes[s.cls] = append(w.seg.bytes[s.cls], float64(n))
		w.seg.admissionUs = append(w.seg.admissionUs, float64(t.AdmissionWaitUs))
		switch s.cls {
		case clsProbeOp:
			w.lastOp = s.body
			w.seg.overheadUs = append(w.seg.overheadUs, float64(s.wall)/1e3-float64(t.WallUs))
		case clsProbeModel:
			w.lastModel = s.body
			w.seg.overheadUs = append(w.seg.overheadUs, float64(s.wall)/1e3-float64(t.WallUs))
		}
		us := func(n int64) time.Duration { return time.Duration(n) * time.Microsecond }
		tr.addStages(s.span,
			stage{"stage.admission_wait", us(t.AdmissionWaitUs)},
			stage{"stage.cold_search", us(t.ColdSearchUs)},
			stage{"stage.cache_probe", us(t.CacheProbeUs)},
			stage{"stage.reconcile", us(t.ReconcileUs)})
	}
	return failed, firstErr
}

// planOf reads the two plan-quality numbers out of the probe answers:
// the fastest Pareto plan of the probe operator that fits a core, and
// the probe model's simulated latency with the largest per-operator
// footprint (its active plan plus every other operator's idle weights).
func (w *serveWorkload) planOf(opBody, modelBody []byte) (lat, mem float64, err error) {
	var op, model servedBody
	if err := json.Unmarshal(opBody, &op); err != nil {
		return 0, 0, err
	}
	if err := json.Unmarshal(modelBody, &model); err != nil {
		return 0, 0, err
	}
	coreKB := float64(w.spec.CoreMemBytes) / 1024
	bestUs, bestKB := 0.0, 0.0
	for _, p := range op.Pareto {
		if p.MemKB <= coreKB && (bestUs == 0 || p.EstUs < bestUs) {
			bestUs, bestKB = p.EstUs, p.MemKB
		}
	}
	if bestUs == 0 {
		return 0, 0, fmt.Errorf("probe_op: no Pareto plan fits a core")
	}
	idleKB := model.IdleMemPct / 100 * coreKB
	peakKB := bestKB
	for _, p := range model.Plans {
		if kb := p.ActiveKB + idleKB - p.IdleKB; kb > peakKB {
			peakKB = kb
		}
	}
	if peakKB > coreKB {
		return 0, 0, fmt.Errorf("selected plans need %.1f KB/core, a core has %.1f", peakKB, coreKB)
	}
	return bestUs/1e3 + model.LatencyMs, 100 * peakKB / coreKB, nil
}

func (w *serveWorkload) verify(context.Context) (float64, float64, error) {
	lat, mem, err := w.planOf(w.refOp, w.refModel)
	if err != nil {
		return 0, 0, err
	}
	if w.lastOp != nil && w.lastModel != nil {
		lat2, mem2, err := w.planOf(w.lastOp, w.lastModel)
		if err != nil {
			return 0, 0, err
		}
		if lat2 != lat || mem2 != mem {
			return 0, 0, fmt.Errorf("two evaluations disagree: %v/%v vs %v/%v", lat, mem, lat2, mem2)
		}
	}
	return lat, mem, nil
}

func (w *serveWorkload) getJSON(path string, v any) error {
	resp, err := w.hc.Get(w.child.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func (w *serveWorkload) counters() (counters, error) {
	var c counters
	if err := w.getJSON("/cachestats", &c.cache); err != nil {
		return c, err
	}
	err := w.getJSON("/stats", &c.serve)
	return c, err
}

func (w *serveWorkload) childCPU() time.Duration { return procCPU(w.child.cmd.Process.Pid) }
func (w *serveWorkload) peakRSSMB() float64      { return procPeakRSSMB(w.child.cmd.Process.Pid) }
