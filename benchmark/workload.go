package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// Workload names are normative: BENCHMARK.json, the README and every later
// issue refer to them.
const (
	wlServeHot     = "serve_hot"
	wlServeChurn   = "serve_churn"
	wlLibDeep      = "lib_deep"
	wlLibBootstrap = "lib_bootstrap"
)

var workloadNames = []string{wlServeHot, wlServeChurn, wlLibDeep, wlLibBootstrap}

// sizing holds the parameter points of the four workloads. fullSizing is the
// benchmark; toySizing exists only so TestSmoke can drive every code path in
// seconds.
type sizing struct {
	serveLogN, serveLevels int
	deepLogN, deepLevels   int
	bootLogN               int
	warmOps                int // warm-up operations per client after its first (oracle-checked) one
	probeReps              int // calls behind each per-layer median
}

var (
	fullSizing = sizing{serveLogN: 11, serveLevels: 5, deepLogN: 13, deepLevels: 11, bootLogN: 12, warmOps: 12, probeReps: 20}
	toySizing  = sizing{serveLogN: 9, serveLevels: 5, deepLogN: 9, deepLevels: 5, bootLogN: 10, warmOps: 1, probeReps: 2}
)

// runEnv is what every workload needs from its surroundings.
type runEnv struct {
	root     string // repository root
	outDir   string // benchmark/out: binaries, state dirs, result and trace files
	fastdBin string // built on demand by the serving workloads
	seed     int64
	size     sizing
	clients  int // closed-loop client goroutines: min(nproc, 2)
	maxOps   int // smoke tests only: stop a window after this many operations (0 = time only)
}

func (e *runEnv) rng(stream int64) *rand.Rand {
	// One independent stream per purpose, all derived from -seed.
	return rand.New(rand.NewSource(e.seed*1000003 + stream))
}

// scratchDir returns a fresh directory under the benchmark's own output tree
// (the harness writes nowhere else).
func (e *runEnv) scratchDir(prefix string) (string, error) {
	parent := filepath.Join(e.outDir, "tmp")
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(parent, prefix)
}

func clientCount() int {
	if n := runtime.NumCPU(); n < 2 {
		return n
	}
	return 2
}

// window is the outcome of one timed closed-loop window.
type window struct {
	elapsed    time.Duration        // wall time from first request to last reply
	excluded   time.Duration        // harness-side verification time on the single caller, not the system's
	latMS      []float64            // latency of every timed operation
	classMS    map[string][]float64 // the same latencies by class (warm, cold, create, retry, ...)
	attempted  int
	failed     int
	firstFail  string  // first failure, for the error message
	sutCPU     float64 // CPU seconds the system under test burned in the window
	harnessCPU float64 // CPU seconds the load generator burned in the window
	before     *scrape // fastd counters around the window (serving workloads)
	after      *scrape
	counts     map[string]float64 // workload-specific exact counts (bytes, model restores, ...)
}

func newWindow() *window {
	return &window{classMS: map[string][]float64{}, counts: map[string]float64{}}
}

func (w *window) record(class string, ms float64) {
	w.latMS = append(w.latMS, ms)
	w.classMS[class] = append(w.classMS[class], ms)
	w.attempted++
}

func (w *window) fail(format string, a ...any) {
	w.attempted++
	w.failed++
	if w.firstFail == "" {
		w.firstFail = fmt.Sprintf(format, a...)
	}
}

func (w *window) merge(o *window) {
	w.latMS = append(w.latMS, o.latMS...)
	for k, v := range o.classMS {
		w.classMS[k] = append(w.classMS[k], v...)
	}
	w.attempted += o.attempted
	w.failed += o.failed
	if w.firstFail == "" {
		w.firstFail = o.firstFail
	}
	for k, v := range o.counts {
		w.counts[k] += v
	}
}

// opsPerSecond is completed operations over the window's own time.
func (w *window) opsPerSecond() float64 {
	t := (w.elapsed - w.excluded).Seconds()
	if t <= 0 {
		return 0
	}
	return float64(w.attempted-w.failed) / t
}

// workload is one of the four benchmark workloads. setUp builds a fresh,
// warmed-up system under test and checks its first output against the
// plaintext oracle; run drives the closed loop; layers adds the per-layer
// metrics of a traced run; tearDown releases everything setUp made.
type workload interface {
	setUp() error
	run(d time.Duration, tr *tracer) (*window, error)
	// precision is precision_bits as recorded by setUp.
	precision() float64
	// sutPID is the process whose CPU and memory are the system's: the
	// spawned fastd, or 0 for the harness itself (library workloads).
	sutPID() int
	// layers gets every window of the traced run in time order, and the
	// traced one among them.
	layers(tr *tracer, all []*window, traced *window, m metricSet) error
	tearDown()
}

func newWorkload(name string, env *runEnv) (workload, error) {
	switch name {
	case wlServeHot:
		return &serveHot{env: env}, nil
	case wlServeChurn:
		return newServeChurn(env), nil
	case wlLibDeep:
		return &libDeep{env: env}, nil
	case wlLibBootstrap:
		return &libBootstrap{env: env}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// precisionFloor is the fewest correct bits a workload's first output may
// show before the run counts as incorrect. The floors sit a few bits under
// what this commit measures (see README): they catch a wrong answer, not a
// noisy one — noise is what precision_bits and its bound are for.
var precisionFloor = map[string]float64{
	wlServeHot:     14,
	wlServeChurn:   14,
	wlLibDeep:      8,
	wlLibBootstrap: 8,
}
