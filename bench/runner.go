package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/device"
	"repro/internal/plancache"
	"repro/t10"
)

// env is what every workload shares: where the checkout is and where
// scratch files go.
type env struct {
	root     string // module root: the checkout the benchmark runs in
	tmp      string // scratch dir under <root>/.bench_build, removed at exit
	serveBin string // the built t10serve, "" until buildServe ran
}

func (e *env) mkTemp(prefix string) (string, error) { return os.MkdirTemp(e.tmp, prefix) }

// The sandbox is two cores of a shared host, and what its neighbours do
// to a run was measured before these were fixed. Waking an idle core
// costs anything from microseconds to a millisecond, so the harness runs
// on one core and compilers search with one worker. The default
// collector ran every 40 ms over a heap that just fits the shared cache,
// for a sixth of cpu_ms_per_request on a quiet host and more on a busy
// one, so it runs at a ninth of the default rate. The served child keeps
// both cores with a budget of one worker: on one core a probe that
// arrives during a cold search waits for the scheduler's time slice, and
// request_p50_ms read anything from 1.0 to 1.6 ms. A later change to the
// parallel search or to the allocation rate shows less here than on a
// quiet multi-core host; t10.allocs_per_op and t10.alloc_bytes_per_op
// count the second.
const (
	procs      = 1   // GOMAXPROCS of the harness
	childProcs = 2   // GOMAXPROCS of the served child
	workers    = 1   // Options.Workers, and the child's -workers
	gcPercent  = 800 // GOGC of the harness and of the child
)

// workload is one set of inputs the benchmark runs. The runner owns the
// closed loop, the clocks and the sample bookkeeping; a workload owns
// what an operation is and how its output is checked.
type workload interface {
	classes() []class
	clients() int
	// maxRate bounds the operations a second the workload can complete;
	// the schedule is generated for that rate before the clock starts.
	maxRate() float64
	// schedule is the class of every request, generated by setup.
	schedule() []uint8

	// setup takes the workload from nothing to ready for its first timed
	// operation: schedule, model graphs, compilers or the served child,
	// and one untimed warm-up pass. blocks sizes the schedule.
	setup(ctx context.Context, seed int64, blocks int) error
	// teardown releases what setup acquired; safe before setup and twice.
	teardown()

	// prepare runs untimed before operation i (fresh compilers).
	prepare(i int) error
	// do runs operation i of class cls and returns its result with the
	// caller-observed wall of exactly the calls that make up the
	// operation. parent is the request's root span.
	do(ctx context.Context, i, cls int, tr *tracer, parent int) (any, time.Duration, error)
	// check verifies one operation's output, outside its timer.
	check(cls int, res any) error
	// settle finishes checks a workload deferred to after the timed
	// loop and returns how many more operations failed them.
	settle(tr *tracer) (int, error)

	// verify checks the distinct requests' selected plans and returns
	// the two plan-quality metrics.
	verify(ctx context.Context) (planLatencyMs, planMemPct float64, err error)

	// counters is cumulative; the runner takes deltas around a segment.
	counters() (counters, error)
	// childCPU is the CPU a child process has used so far (0 without one).
	childCPU() time.Duration
	// peakRSSMB is the peak resident set of the process the workload
	// loads: the child's for serve_mix, the harness's otherwise.
	peakRSSMB() float64
}

// counters are the cumulative per-layer counts a workload can observe
// from outside.
type counters struct {
	cache plancache.Stats
	serve serveStats
}

func (c counters) sub(o counters) counters {
	d := c
	addCache(&d.cache, o.cache, -1)
	d.serve = c.serve.sub(o.serve)
	return d
}

// addCache folds sign × s into acc: +1 takes in a discarded compiler's
// cache counters, −1 takes a delta.
func addCache(acc *plancache.Stats, s plancache.Stats, sign int64) {
	acc.Hits += sign * s.Hits
	acc.Misses += sign * s.Misses
	acc.Evictions += sign * s.Evictions
	acc.DiskHits += sign * s.DiskHits
	acc.DiskRejects += sign * s.DiskRejects
	acc.DiskErrors += sign * s.DiskErrors
	acc.DiskWrites += sign * s.DiskWrites
}

// segment is what one timed closed-loop phase measured. The sandbox
// shares its host: for seconds at a time other tenants slow every
// operation by a fifth or more, and such interference only ever adds
// time. The phase is therefore cut into windows of whole blocks — equal
// mixes of work — and only the quiet third, the windows that completed
// operations at the highest rate, feeds the latency, throughput and CPU
// figures. Failures are counted over every window. Slower spells, which
// outlast a run, are what the calibration samples are for (calib.go).
type segment struct {
	byClass   [][]float64 // quiet windows: caller-observed wall per passing operation, ms
	attempted int         // every window
	failed    int
	windows   int // windows the phase was cut into
	quiet     struct {
		windows   int
		attempted int
		passed    int
		wall      time.Duration
		cpu       time.Duration
		cal       []float64 // calibration samples taken in these windows, ms
	}
	firstErr error
}

func (s *segment) all() []float64 {
	var out []float64
	for _, c := range s.byClass {
		out = append(out, c...)
	}
	return out
}

// windowsPerSegment is how many windows a timed phase is cut into:
// short enough that an interference episode of a few seconds spoils
// only some of them, long enough that each holds several blocks of the
// slowest workload. One window in quietDivisor is kept, and the
// calibration work runs calPerWindow times in each.
const (
	windowsPerSegment = 40
	quietDivisor      = 3
	calPerWindow      = 8
)

// mark opens a window: the first request index it covers, the clock and
// CPU readings when that request was handed out, and the calibration
// samples taken until the next window opened.
type mark struct {
	first int
	at    time.Duration
	cpu   time.Duration
	cal   []float64
}

// op is one completed operation.
type op struct {
	idx, cls int
	ms       float64
	passed   bool
}

// measure runs the closed loop from request index *pos for at least dur
// and stops at the next block end, so the class shares are exact. Each
// of the workload's clients sends its next request when its previous
// one returned.
func measure(ctx context.Context, w workload, sched []uint8, pos *int, dur time.Duration, tr *tracer) (*segment, error) {
	classes := w.classes()
	bl := blockLen(classes)
	seg := &segment{byClass: make([][]float64, len(classes))}
	cpuNow := func() time.Duration { return selfCPU() + w.childCPU() }

	var mu sync.Mutex // guards *pos, stop, marks, ops and seg
	stop := false
	var loopErr error
	var marks []mark
	var ops []op
	calibrate() // the first call pays for its pages
	start := time.Now()
	winDur := dur / windowsPerSegment
	lastCal := -winDur

	next := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		i := *pos
		if i%bl == 0 {
			now := time.Since(start)
			if now >= dur || ctx.Err() != nil {
				stop = true
			} else if len(marks) == 0 || now-marks[len(marks)-1].at >= winDur {
				marks = append(marks, mark{first: i, at: now, cpu: cpuNow()})
			}
			// between two blocks, on the clients' own core; under 1% of
			// a window, and the same share in every run
			if !stop && now-lastCal >= winDur/calPerWindow {
				m := &marks[len(marks)-1]
				m.cal = append(m.cal, calibrate())
				lastCal = now
			}
		}
		if stop || i >= len(sched) {
			return 0, false
		}
		*pos = i + 1
		return i, true
	}
	client := func() {
		for {
			i, ok := next()
			if !ok {
				return
			}
			cls := int(sched[i])
			if err := w.prepare(i); err != nil {
				mu.Lock()
				stop, loopErr = true, fmt.Errorf("prepare %d: %w", i, err)
				mu.Unlock()
				return
			}
			root := tr.begin("request", -1, i)
			res, d, err := w.do(ctx, i, cls, tr, root)
			tr.end(root)
			if err == nil {
				err = w.check(cls, res)
			}
			mu.Lock()
			ops = append(ops, op{idx: i, cls: cls, ms: float64(d) / 1e6, passed: err == nil})
			if err != nil && seg.firstErr == nil {
				seg.firstErr = fmt.Errorf("request %d (%s): %w", i, classes[cls].name, err)
			}
			mu.Unlock()
		}
	}
	var wg sync.WaitGroup
	for c := 0; c < w.clients(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client()
		}()
	}
	wg.Wait()
	marks = append(marks, mark{first: *pos, at: time.Since(start), cpu: cpuNow()})
	if loopErr != nil {
		return nil, loopErr
	}
	if len(ops) == 0 {
		return nil, fmt.Errorf("no operation ran in %v", dur)
	}
	seg.keepQuiet(marks, ops)
	late, err := w.settle(tr)
	if err != nil && seg.firstErr == nil {
		seg.firstErr = err
	}
	seg.failed += late
	return seg, nil
}

// keepQuiet fills the segment from the operations of the quiet third of
// the windows. marks holds one entry per window and a closing one.
func (s *segment) keepQuiet(marks []mark, ops []op) {
	type win struct {
		attempted, passed int
		wall, cpu         time.Duration
	}
	wins := make([]win, len(marks)-1)
	for i := range wins {
		wins[i].wall = marks[i+1].at - marks[i].at
		wins[i].cpu = marks[i+1].cpu - marks[i].cpu
	}
	// the window of request idx is the last one opened at or before it
	winOf := func(idx int) int {
		return sort.Search(len(wins), func(k int) bool { return marks[k+1].first > idx })
	}
	for _, o := range ops {
		k := winOf(o.idx)
		wins[k].attempted++
		s.attempted++
		if o.passed {
			wins[k].passed++
		} else {
			s.failed++
		}
	}
	order := make([]int, len(wins))
	for i := range order {
		order[i] = i
	}
	rate := func(k int) float64 { return float64(wins[k].passed) / wins[k].wall.Seconds() }
	sort.SliceStable(order, func(a, b int) bool { return rate(order[a]) > rate(order[b]) })
	keep := (len(wins) + quietDivisor - 1) / quietDivisor
	quiet := make([]bool, len(wins))
	for _, k := range order[:keep] {
		quiet[k] = true
		s.quiet.attempted += wins[k].attempted
		s.quiet.passed += wins[k].passed
		s.quiet.wall += wins[k].wall
		s.quiet.cpu += wins[k].cpu
		s.quiet.cal = append(s.quiet.cal, marks[k].cal...)
	}
	s.windows, s.quiet.windows = len(wins), keep
	for _, o := range ops {
		if o.passed && quiet[winOf(o.idx)] {
			s.byClass[o.cls] = append(s.byClass[o.cls], o.ms)
		}
	}
}

// selfCPU is the harness's user+system CPU so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// selfPeakRSSMB is the harness's peak resident set (Linux reports KiB).
func selfPeakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// procTicksPerSec is the kernel's USER_HZ, the unit of /proc/<pid>/stat
// CPU times; it is 100 on every Linux the Go toolchain supports.
const procTicksPerSec = 100

// procCPU reads a live child's user+system CPU from /proc.
func procCPU(pid int) time.Duration {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0
	}
	// the command name may contain spaces; fields are counted from the
	// closing parenthesis, after which utime and stime are the 12th and
	// 13th
	s := string(b)
	if i := strings.LastIndexByte(s, ')'); i >= 0 {
		s = s[i+1:]
	}
	f := strings.Fields(s)
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseInt(f[11], 10, 64)
	st, _ := strconv.ParseInt(f[12], 10, 64)
	return time.Duration(ut+st) * time.Second / procTicksPerSec
}

// procPeakRSSMB reads a live child's VmHWM from /proc.
func procPeakRSSMB(pid int) float64 {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, _ := strconv.ParseFloat(f[1], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// newCompiler builds a compiler the way every in-process workload does:
// the paper's defaults with one worker, private pool.
func newCompiler(e *env, spec *device.Spec, cacheDir string) (*t10.Compiler, error) {
	opts := t10.DefaultOptions()
	opts.Workers = workers
	if cacheDir != "" {
		opts.CacheDir = cacheDir
		opts.CacheSalt = []byte(cacheSalt)
	}
	return t10.New(spec, opts)
}

// cacheSalt signs every disk record the benchmark writes, so the disk
// route pays the HMAC verification a deployment pays.
const cacheSalt = "bench"

// memStats snapshots the allocation counters (stops the world; called
// twice per segment, never inside one).
func memStats() (bytes, mallocs uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc, ms.Mallocs
}
