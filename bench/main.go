// Command bench is the repository's benchmark: six compile and serve
// workloads measured from outside the compiler, by timing calls into
// t10 and internal/* and requests to a cmd/t10serve child process.
//
// One run measures one workload. Untraced (-trace 0) it prints the
// end-to-end metrics; traced (-trace 1) it wraps every call into a
// layer in a span and prints the per-layer metrics. The last line of
// standard output is the result as one JSON object. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"
)

// workloadNames are the six workloads. BENCHMARK.json lists the first
// gatedWorkloads of them, in this order: the time its driver allows for
// all its runs covers four workloads at a run length that outlasts the
// host's slow spells, not six. The other two run by name.
var workloadNames = []string{
	"cold_models", "warm_models", "sharded_prefill", "serve_mix",
	"restart_models", "cold_bigcore",
}

const gatedWorkloads = 4

func newWorkload(e *env, name string) (workload, error) {
	switch name {
	case "cold_models":
		return newModelsWorkload(e, routeCold), nil
	case "warm_models":
		return newModelsWorkload(e, routeMemory), nil
	case "restart_models":
		return newModelsWorkload(e, routeDisk), nil
	case "sharded_prefill":
		return newShardedWorkload(e), nil
	case "serve_mix":
		return newServeWorkload(e), nil
	case "cold_bigcore":
		return newBigcoreWorkload(e), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// config is one invocation's settings.
type config struct {
	seed      int64
	seconds   float64
	traced    bool
	traceFile string
	// setupReps is how many times the set-up is run and timed; setup_s
	// is the median.
	setupReps int
	// reps scales the layer probes' repetition counts.
	reps probeReps
}

// result is the wire form of one run: the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is what -out receives: the result of every run of the
// invocation with what the result line has no room for.
type report struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Traced   bool   `json:"traced"`
	Samples  int    `json:"samples"`
	Windows  [2]int `json:"windows"` // kept, and cut in all
	// Slowdown is what the run's times were divided by: how much slower
	// than its reference the calibration work ran, around the set-ups
	// and in the kept windows.
	Slowdown struct {
		Setup float64 `json:"setup"`
		Timed float64 `json:"timed"`
	} `json:"slowdown"`
	Result  result            `json:"result"`
	Exact   map[string]bool   `json:"repeats_exactly"`
	Classes map[string]sample `json:"classes,omitempty"`
}

// sample summarises one request class of an untraced run.
type sample struct {
	N     int     `json:"n"`
	P50Ms float64 `json:"p50_ms"`
}

func main() { os.Exit(run()) }

func run() int {
	var (
		name    = flag.String("workload", "", "workload to run (default: all six, one after the other)")
		seed    = flag.Int64("seed", 1, "seed the request schedule and every generated input are drawn from")
		seconds = flag.Float64("seconds", 12, "length of the timed phase")
		trace   = flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
		spans   = flag.String("tracefile", "", "with -trace 1: write the recorded spans to this file as JSON")
		out     = flag.String("out", "", "also write the results, with sample counts and repeats_exactly flags, to this file")
		smoke   = flag.Bool("smoke", false, "all six workloads, traced and untraced, at about 1% of the operation counts")
		root    = flag.String("root", "", "repository checkout (default: the working directory or its parent)")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: bench [-workload name] [-seed n] [-seconds s] [-trace 0|1] [-tracefile file] [-out file] [-smoke]")
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	runtime.GOMAXPROCS(procs)
	debug.SetGCPercent(gcPercent)

	e, err := newEnv(*root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(e.tmp)

	cfg := config{seed: *seed, seconds: *seconds, traceFile: *spans, setupReps: 5, reps: fullReps}
	names := workloadNames
	if *name != "" {
		names = []string{*name}
	}
	passes := []bool{*trace == 1}
	if *smoke {
		cfg, passes = smokeConfig(*seed), []bool{false, true}
	}
	reports, err := runAll(ctx, e, names, passes, cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if *out != "" {
		b, err := json.MarshalIndent(reports, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	for i := range reports {
		if !reports[i].Result.Correct {
			return 1
		}
	}
	return 0
}

// smokeConfig runs every code path of a workload in a fraction of a
// second: about 1% of the operations, one set-up, one call per probe.
func smokeConfig(seed int64) config {
	return config{seed: seed, seconds: 0.15, setupReps: 1, reps: smokeReps}
}

// runAll measures each named workload once per pass (false: untraced,
// true: traced) and prints each report as it is made. An error means a
// run measured nothing it can stand behind, and no result line was
// printed for it.
func runAll(ctx context.Context, e *env, names []string, passes []bool, cfg config, out io.Writer) ([]report, error) {
	var reports []report
	for _, n := range names {
		for _, traced := range passes {
			cfg.traced = traced
			rep, err := runOne(ctx, e, n, cfg)
			if err == nil {
				err = printReport(out, rep)
			}
			if err != nil {
				return reports, fmt.Errorf("%s: %w", n, err)
			}
			reports = append(reports, *rep)
		}
	}
	return reports, nil
}

// newEnv finds the checkout and makes the scratch directory inside it.
func newEnv(root string) (*env, error) {
	if root == "" {
		for _, dir := range []string{".", ".."} {
			if _, err := os.Stat(filepath.Join(dir, "cmd", "t10serve", "main.go")); err == nil {
				root = dir
				break
			}
		}
		if root == "" {
			return nil, fmt.Errorf("no cmd/t10serve here or one level up: run from the repository checkout")
		}
	}
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	build := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(build, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(build, "run-")
	if err != nil {
		return nil, err
	}
	return &env{root: root, tmp: tmp}, nil
}

// runOne measures one workload once, traced or untraced.
func runOne(ctx context.Context, e *env, name string, cfg config) (*report, error) {
	w, err := newWorkload(e, name)
	if err != nil {
		return nil, err
	}
	// every traced run drives the daemon, serve_mix untraced too
	if _, isServe := w.(*serveWorkload); (isServe || cfg.traced) && e.serveBin == "" {
		if err := buildServe(ctx, e); err != nil {
			return nil, err
		}
	}
	// The compiler's output against the independent interpreter, once
	// per run, before anything is timed.
	if _, err := functionalCheck(ctx, e, cfg.seed); err != nil {
		return nil, fmt.Errorf("functional check: %w", err)
	}
	defer w.teardown()

	segments := 1.0
	if cfg.traced {
		segments = 2 // an untraced and a traced segment, for the overhead
	}
	segDur := time.Duration(cfg.seconds / segments * float64(time.Second))
	blocks := int(math.Ceil(w.maxRate()*cfg.seconds/float64(blockLen(w.classes())))) + 1

	setups := make([]float64, 0, cfg.setupReps)
	calibrate() // the first call pays for its pages
	setupCal := []float64{calibrate()}
	for r := 0; r < cfg.setupReps; r++ {
		if r > 0 {
			w.teardown()
		}
		t0 := time.Now()
		if err := w.setup(ctx, cfg.seed, blocks); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		setupCal = append(setupCal, calibrate(), calibrate())
	}

	pos := 0
	if !cfg.traced {
		seg, err := measure(ctx, w, w.schedule(), &pos, segDur, nil)
		if err != nil {
			return nil, err
		}
		return endToEndReport(ctx, name, cfg, w, seg, median(setups), slowdown(setupCal))
	}
	return perLayerReport(ctx, e, name, cfg, w, &pos, segDur)
}

// endToEndReport turns an untraced segment into the end-to-end metrics,
// every time scaled to the host's reference speed (calib.go).
func endToEndReport(ctx context.Context, name string, cfg config, w workload, seg *segment, setupS, setupSlow float64) (*report, error) {
	_, _, verr := w.verify(ctx)
	all := sortedCopy(seg.all())
	if len(all) == 0 {
		return nil, fmt.Errorf("no operation succeeded; first failure: %v", seg.firstErr)
	}
	slow := slowdown(seg.quiet.cal)
	vals := map[string]float64{
		"setup_s":            setupS / setupSlow,
		"request_p50_ms":     quantile(all, 0.50) / slow,
		"request_p90_ms":     quantile(all, tailQuantile) / slow,
		"throughput_rps":     float64(seg.quiet.passed) / seg.quiet.wall.Seconds() * slow,
		"cpu_ms_per_request": float64(seg.quiet.cpu) / 1e6 / float64(seg.quiet.attempted) / slow,
	}
	ms, err := emit(endToEnd, vals)
	if err != nil {
		return nil, err
	}
	rep := newReport(name, cfg, endToEnd, result{
		Correct:   seg.failed == 0 && verr == nil,
		Attempted: seg.attempted, Failed: seg.failed, Metrics: ms,
	}, len(all))
	rep.Windows = [2]int{seg.quiet.windows, seg.windows}
	rep.Slowdown.Setup, rep.Slowdown.Timed = setupSlow, slow
	rep.Classes = map[string]sample{}
	for ci, c := range w.classes() {
		rep.Classes[c.name] = sample{N: len(seg.byClass[ci]), P50Ms: median(seg.byClass[ci])}
	}
	if !supported(len(all), tailQuantile) {
		fmt.Fprintf(os.Stderr, "bench: %s: only %d samples, fewer than %d lie beyond p90\n", name, len(all), minBeyond)
	}
	reportErrs(name, seg.firstErr, verr)
	return rep, nil
}

func reportErrs(name string, errs ...error) {
	for _, err := range errs {
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: check failed: %v\n", name, err)
		}
	}
}

func newReport(name string, cfg config, defs []metricDef, res result, samples int) *report {
	rep := &report{Workload: name, Seed: cfg.seed, Traced: cfg.traced, Samples: samples, Result: res, Exact: map[string]bool{}}
	for _, d := range defs {
		if d.exact {
			rep.Exact[d.name] = true
		}
	}
	return rep
}

// printReport prints every metric by name with its unit, then the
// result line. A value that is not a number has no JSON form: that is
// a failed measurement, and no result line is printed for it.
func printReport(out io.Writer, rep *report) error {
	line, err := json.Marshal(rep.Result)
	if err != nil {
		return err
	}
	pass := "untraced"
	if rep.Traced {
		pass = "traced"
	}
	fmt.Fprintf(out, "# %s seed=%d %s: %d samples, %d attempted, %d failed\n",
		rep.Workload, rep.Seed, pass, rep.Samples, rep.Result.Attempted, rep.Result.Failed)
	if !rep.Traced {
		fmt.Fprintf(out, "# the samples are those of the quiet %d of %d windows; the host ran the calibration work %.3f times slower\n"+
			"# than its reference there and %.3f times around the set-ups, and the times below are divided by that\n",
			rep.Windows[0], rep.Windows[1], rep.Slowdown.Timed, rep.Slowdown.Setup)
	}
	names := make([]string, 0, len(rep.Result.Metrics))
	for n := range rep.Result.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rep.Result.Metrics[n]
		exact := ""
		if rep.Exact[n] {
			exact = "  repeats_exactly"
		}
		fmt.Fprintf(out, "%-36s %16.6g %s%s\n", n, m.Value, m.Unit, exact)
	}
	classes := make([]string, 0, len(rep.Classes))
	for c := range rep.Classes {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		fmt.Fprintf(out, "class %-30s %16.6g ms p50 over %d samples\n", c, rep.Classes[c].P50Ms, rep.Classes[c].N)
	}
	fmt.Fprintf(out, "%s\n", line)
	return nil
}
