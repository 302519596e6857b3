// Command benchmark is the one benchmark of this repository: four workloads
// that drive the system strictly from outside (a spawned fastd over HTTP, and
// the public fast API in process), a handful of end-to-end metrics a user of
// the system would see, and — in a separate traced run — per-layer probes
// around each package's public functions. See README.md beside this file.
//
// The driver's contract (BENCHMARK.json at the repository root):
//
//	go run -C benchmark . --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// prints, as the last line of standard output, one JSON object with the keys
// correct, attempted, failed and metrics. Further modes:
//
//	-workload all        run the four workloads one after another
//	-runs N              repeat each workload N times (seeds n, n+1, ...)
//	-out FILE            write every run's record to FILE (a recording)
//	-compare A B         compare two recordings under BENCHMARK.json's bounds
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"
)

// errVoid marks a run whose numbers must not be reported: the benchmark's
// own assumptions did not hold (wrong LRU model, too few samples behind a
// percentile, a saturated load generator).
var errVoid = errors.New("run voided")

// minTailSamples is the fewest latency samples a full-size window must hold
// for its latency_p95_ms to be reported. The serving workloads and lib_deep
// keep several samples beyond the 95th percentile; lib_bootstrap cannot at
// ~1.4 s an operation, and its p95 is documented as the slowest of a dozen.
var minTailSamples = map[string]int{wlServeHot: 200, wlServeChurn: 200, wlLibDeep: 60, wlLibBootstrap: 8}

// maxClientCPUShare voids a serving run whose load generator used more than
// this share of one core per client: the generator, not fastd, would then be
// what the run measured.
const maxClientCPUShare = 0.20

// setupsPerRun is how many times an untraced run sets the system up; setup_s
// is the median. It is part of what setup_s and peak_rss_mb mean, so it is
// not a flag.
const setupsPerRun = 3

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	runs     int
	out      string
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	var compare bool
	fs.StringVar(&o.workload, "workload", "all", "workload to run: serve_hot, serve_churn, lib_deep, lib_bootstrap or all")
	fs.Int64Var(&o.seed, "seed", 1, "derives plaintexts, session seeds and the op schedule")
	fs.Float64Var(&o.seconds, "seconds", 0, "length of the measured window (default: run_seconds of BENCHMARK.json)")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	fs.IntVar(&o.runs, "runs", 1, "runs per workload, with seeds seed, seed+1, ...")
	fs.StringVar(&o.out, "out", "", "recording file (default benchmark/out/last.json)")
	fs.BoolVar(&compare, "compare", false, "compare two recordings: -compare A.json B.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace != 0

	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	spec, err := loadSpec(root)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: -compare A.json B.json")
			return 2
		}
		return compareRecordings(fs.Arg(0), fs.Arg(1), spec, stdout, stderr)
	}
	if o.seconds <= 0 {
		o.seconds = float64(spec.RunSeconds)
	}
	names := []string{o.workload}
	if o.workload == "all" {
		names = workloadNames
	}

	outDir := filepath.Join(root, "benchmark", "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if o.out == "" {
		o.out = filepath.Join(outDir, "last.json")
	}

	// A signal must not leave a fastd or a state directory behind: the
	// workloads' deferred tearDown runs only on a normal return, so turn
	// SIGINT/SIGTERM into one (children also carry Pdeathsig as a backstop).
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(stop)

	var recs []record
	code := 0
	var last *record
	for _, name := range names {
		for r := 0; r < o.runs; r++ {
			env := &runEnv{root: root, outDir: outDir, seed: o.seed + int64(r), size: fullSizing, clients: clientCount()}
			rec, err := runWorkload(env, name, o, spec, stop)
			if rec != nil {
				recs = append(recs, *rec)
				last = rec
				printRecord(stdout, rec, spec)
			}
			if err != nil {
				fmt.Fprintf(stderr, "benchmark: %s: %v\n", name, err)
				if errors.Is(err, errVoid) {
					code = 3
				} else {
					code = 1
				}
			}
		}
	}
	if err := writeRecording(o.out, recs); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	// The contract's last line: the result of the (last) run. A voided or
	// crashed run prints none.
	if last != nil && last.Void == "" {
		raw, _ := json.Marshal(last.Result)
		fmt.Fprintln(stdout, string(raw))
	}
	return code
}

// recording is the file -out writes and -compare reads: every run of one
// invocation, each stamped with its environment.
type recording struct {
	Records []record `json:"records"`
}

func writeRecording(path string, recs []record) error {
	raw, err := json.MarshalIndent(recording{recs}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// runWorkload performs one run of one workload: set-up (several times, for a
// steady setup_s), the measured window(s), the validity checks, and — traced —
// the per-layer probes. It returns a record even for a failed or voided run
// when there is something to show.
func runWorkload(env *runEnv, name string, o options, spec *benchSpec, stop <-chan os.Signal) (*record, error) {
	wl, err := newWorkload(name, env)
	if err != nil {
		return nil, err
	}
	if name == wlServeHot || name == wlServeChurn {
		if env.fastdBin, err = buildFastd(env.root, env.outDir); err != nil {
			return nil, err
		}
	}
	rec := &record{Workload: name, Trace: o.trace, Seconds: o.seconds, Env: stampEnv(env.root, env.seed), Samples: map[string]int{}}

	// Interrupt handling: tear the workload down, then exit.
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-stop:
			wl.tearDown()
			os.Exit(130)
		case <-done:
		}
	}()

	resetPeakRSS()
	setups := setupsPerRun
	if o.trace || env.maxOps > 0 {
		setups = 1 // a traced run reports no setup_s; a smoke run judges no number
	}
	for i := 0; i < setups; i++ {
		if i > 0 {
			wl.tearDown()
			// Earlier set-ups' key material is garbage now; collect it so
			// peak_rss_mb is the peak of one system, not of three.
			runtime.GC()
			debug.FreeOSMemory()
		}
		t0 := time.Now()
		if err := wl.setUp(); err != nil {
			wl.tearDown()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		rec.Setups = append(rec.Setups, time.Since(t0).Seconds())
	}
	defer wl.tearDown()

	m := metricSet{}
	var windows []*window // every window this run drove, in order
	drive := func(share float64, tr *tracer) (*window, error) {
		w, err := wl.run(time.Duration(o.seconds*share*float64(time.Second)), tr)
		if err == nil {
			windows = append(windows, w)
		}
		return w, err
	}
	if !o.trace {
		w, err := drive(1, nil)
		if err != nil {
			return nil, err
		}
		endToEnd(m, wl, w, rec)
		rec.Result.Metrics, err = m.report(spec.EndToEnd, true)
		if err != nil {
			return nil, err
		}
	} else {
		// Untraced, traced, untraced: the traced window sits in the middle of
		// two untraced halves of the same total length, so a drift across the
		// run (serve_churn slows as its journals grow) weighs on both sides
		// alike and the throughput ratio is the tracing overhead.
		tr := newTracer()
		un1, err := drive(0.2, nil)
		if err != nil {
			return nil, err
		}
		tw, err := drive(0.4, tr)
		if err != nil {
			return nil, err
		}
		un2, err := drive(0.2, nil)
		if err != nil {
			return nil, err
		}
		if err = wl.layers(tr, windows, tw, m); err != nil {
			return nil, fmt.Errorf("per-layer probes: %w", err)
		}
		unTime := (un1.elapsed - un1.excluded + un2.elapsed - un2.excluded).Seconds()
		if unOps := float64(un1.attempted - un1.failed + un2.attempted - un2.failed); unOps > 0 && unTime > 0 {
			m["bench.trace_overhead_share"] = 1 - tw.opsPerSecond()/(unOps/unTime)
		}
		if ops := tw.attempted - tw.failed; ops > 0 && wl.sutPID() != 0 {
			m["bench.client_cpu_ms_per_op"] = tw.harnessCPU * 1000 / float64(ops)
		}
		if err = tr.write(filepath.Join(env.outDir, name+".trace.json"), rec.Env); err != nil {
			return nil, err
		}
		if rec.Result.Metrics, err = m.report(spec.PerLayer, false); err != nil {
			return nil, err
		}
	}

	firstFail := ""
	for _, w := range windows {
		rec.Result.Attempted += w.attempted
		rec.Result.Failed += w.failed
		if firstFail == "" {
			firstFail = w.firstFail
		}
		for class, v := range w.classMS {
			rec.Samples[class] += len(v)
		}
		rec.Samples["latency"] += len(w.latMS)
	}
	rec.Result.Correct = rec.Result.Failed == 0 && rec.Result.Attempted > 0
	if !rec.Result.Correct {
		return rec, fmt.Errorf("%d of %d operations failed; first: %s", rec.Result.Failed, rec.Result.Attempted, firstFail)
	}
	for _, w := range windows {
		if reason := voidReason(name, env, wl, w, o.trace); reason != "" {
			rec.Void = reason
			return rec, fmt.Errorf("%w: %s", errVoid, reason)
		}
	}
	return rec, nil
}

// endToEnd derives the end-to-end metrics of one untraced window.
func endToEnd(m metricSet, wl workload, w *window, rec *record) {
	ops := float64(w.attempted - w.failed)
	m["throughput_ops_s"] = w.opsPerSecond()
	m["latency_p50_ms"] = percentile(w.latMS, 0.50)
	m["latency_p95_ms"] = percentile(w.latMS, 0.95)
	m["precision_bits"] = wl.precision()
	pid := wl.sutPID()
	if pid == 0 {
		pid = os.Getpid()
	}
	if rss, err := procPeakRSSMB(pid); err == nil {
		m["peak_rss_mb"] = rss
	}
	if ops > 0 {
		m["cpu_ms_per_op"] = w.sutCPU * 1000 / ops
	}
	m["setup_s"] = median(rec.Setups)
}

// voidReason applies the run validity checks; "" means the run stands.
func voidReason(name string, env *runEnv, wl workload, w *window, traced bool) string {
	if env.maxOps > 0 {
		return "" // smoke runs are sized by op count, not for statistics
	}
	if !traced {
		if need := minTailSamples[name]; len(w.latMS) < need {
			return fmt.Sprintf("%d latency samples, need %d behind latency_p95_ms (lengthen -seconds)", len(w.latMS), need)
		}
	}
	if wl.sutPID() != 0 && w.elapsed > 0 {
		if share := w.harnessCPU / (w.elapsed.Seconds() * float64(env.clients)); share > maxClientCPUShare {
			return fmt.Sprintf("load generator used %.0f%% of a core per client (limit %.0f%%)", share*100, maxClientCPUShare*100)
		}
	}
	if want, ok := w.counts["model_restores"]; ok {
		if got := counterDelta(w.before, w.after, "sessions.restored"); got != want {
			return fmt.Sprintf("fastd restored %v sessions, the schedule's LRU model predicted %v", got, want)
		}
	}
	return ""
}

// printRecord prints every metric of a run by name, with unit and the sample
// counts behind the percentiles.
func printRecord(out io.Writer, rec *record, spec *benchSpec) {
	mode := "end-to-end"
	defs := spec.EndToEnd
	if rec.Trace {
		mode, defs = "per-layer (traced)", spec.PerLayer
	}
	fmt.Fprintf(out, "== %s  %s  seed %d  %.0fs  [%s, %d cpu, GOMAXPROCS %d, %s, %s, commit %s]\n",
		rec.Workload, mode, rec.Env.Seed, rec.Seconds, rec.Env.CPUModel, rec.Env.NProc, rec.Env.GOMAXPROCS,
		rec.Env.GoVersion, rec.Env.Kernels, rec.Env.Commit)
	for _, d := range defs {
		if v, ok := rec.Result.Metrics[d.Name]; ok {
			fmt.Fprintf(out, "  %-30s %14.4f %s\n", d.Name, v.Value, v.Unit)
		}
	}
	classes := make([]string, 0, len(rec.Samples))
	for c := range rec.Samples {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	fmt.Fprintf(out, "  samples:")
	for _, c := range classes {
		fmt.Fprintf(out, " %s=%d", c, rec.Samples[c])
	}
	fmt.Fprintf(out, "  attempted=%d failed=%d", rec.Result.Attempted, rec.Result.Failed)
	if rec.Void != "" {
		fmt.Fprintf(out, "  VOID: %s", rec.Void)
	}
	fmt.Fprintln(out)
}
