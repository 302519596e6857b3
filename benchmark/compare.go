package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// exactMetrics repeat bit for bit on one commit at one seed: counts, sizes
// and the simulator's deterministic outputs. -compare pairs the two
// recordings' runs by (workload, seed) and lists any that differ — a change
// in one of them means behaviour changed, not that the machine was noisy.
var exactMetrics = []string{
	"precision_bits", "fastd.wire_kb_per_op", "ckks.keyswitch_per_op", "ckks.ct_kb", "fast.snapshot_mb",
	"costmodel.ks_modops", "costmodel.plan_units", "aether.klss_share", "sim.bootstrap_ms", "sim.speedup_vs_sharp",
}

func loadRecording(path string) (*recording, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r recording
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(r.Records) == 0 {
		return nil, fmt.Errorf("%s: no records", path)
	}
	return &r, nil
}

// sameMachine refuses to compare recordings made under different conditions:
// a 1-core and a 2-core recording, or AVX2 and purego kernels, differ for
// reasons no commit caused.
func sameMachine(a, b envStamp) string {
	var diffs []string
	add := func(what string, x, y any) {
		if x != y {
			diffs = append(diffs, fmt.Sprintf("%s %v vs %v", what, x, y))
		}
	}
	add("cpu", a.CPUModel, b.CPUModel)
	add("nproc", a.NProc, b.NProc)
	add("GOMAXPROCS", a.GOMAXPROCS, b.GOMAXPROCS)
	add("go", a.GoVersion, b.GoVersion)
	add("kernels", a.Kernels, b.Kernels)
	return strings.Join(diffs, ", ")
}

// sameWindow refuses to compare runs of different window lengths: a run's
// length is part of the benchmark's identity (serve_churn's restore cost
// grows with the operations run), so a 10 s and a 20 s recording differ for
// reasons no commit caused. It also catches one recording that mixes lengths.
func sameWindow(a, b *recording) string {
	type key struct {
		workload string
		trace    bool
	}
	seen := map[key]float64{}
	for _, r := range [2]*recording{a, b} {
		for _, rec := range r.Records {
			k := key{rec.Workload, rec.Trace}
			if s, ok := seen[k]; ok && s != rec.Seconds {
				return fmt.Sprintf("%s runs of %v s and of %v s", rec.Workload, s, rec.Seconds)
			}
			seen[k] = rec.Seconds
		}
	}
	return ""
}

// values gathers one metric's values over the valid runs of one workload.
func (r *recording) values(workload string, trace bool, metric string) []float64 {
	var out []float64
	for _, rec := range r.Records {
		if rec.Workload != workload || rec.Trace != trace || rec.Void != "" || !rec.Result.Correct {
			continue
		}
		if v, ok := rec.Result.Metrics[metric]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

// verdict is the outcome of one (metric, workload) cell.
type verdict struct {
	word   string  // ok, better, REGRESSION, unresolved, n/a
	worse  float64 // share by which B's median is worse than A's (negative = better)
	spread float64 // the wider of the two run-to-run spreads
}

// judge applies one metric's bound to the two sets of runs. B regresses when
// its median is worse than A's by more than the bound. When either side's
// run-to-run spread exceeds the bound the cell cannot be called unchanged:
// it is unresolved, unless every run of B reads better than every run of A.
func judge(def metricDef, a, b []float64) verdict {
	if len(a) == 0 || len(b) == 0 {
		return verdict{word: "n/a"}
	}
	ma, mb := median(a), median(b)
	v := verdict{spread: max(spreadShare(a), spreadShare(b))}
	if ma != 0 {
		v.worse = (mb - ma) / ma
		if def.Better == "higher" {
			v.worse = -v.worse
		}
	}
	allBetter := true
	for _, x := range b {
		for _, y := range a {
			if (def.Better == "higher" && x <= y) || (def.Better != "higher" && x >= y) {
				allBetter = false
			}
		}
	}
	switch {
	case v.worse > def.Bound:
		v.word = "REGRESSION"
	case allBetter:
		v.word = "better"
	case v.spread > def.Bound:
		v.word = "unresolved"
	default:
		v.word = "ok"
	}
	return v
}

// compareRecordings prints one row per workload with a verdict per end-to-end
// metric, lists exact metrics that differ, and returns non-zero when any cell
// regressed. A is the baseline, B the candidate.
func compareRecordings(pathA, pathB string, spec *benchSpec, stdout, stderr io.Writer) int {
	a, errA := loadRecording(pathA)
	b, errB := loadRecording(pathB)
	if err := errors.Join(errA, errB); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	return compare(a, b, spec, stdout, stderr)
}

func compare(a, b *recording, spec *benchSpec, stdout, stderr io.Writer) int {
	if diff := sameMachine(a.Records[0].Env, b.Records[0].Env); diff != "" {
		fmt.Fprintf(stderr, "refusing to compare recordings from different environments: %s\n", diff)
		return 2
	}
	if diff := sameWindow(a, b); diff != "" {
		fmt.Fprintf(stderr, "refusing to compare runs of different lengths: %s\n", diff)
		return 2
	}
	fmt.Fprintf(stdout, "A: commit %s, %d records   B: commit %s, %d records\n",
		a.Records[0].Env.Commit, len(a.Records), b.Records[0].Env.Commit, len(b.Records))
	fmt.Fprintln(stdout, "cell = verdict (B's median worse than A's by, widest run-to-run spread); bound in header")
	fmt.Fprintf(stdout, "%-14s", "workload")
	for _, d := range spec.EndToEnd {
		fmt.Fprintf(stdout, " | %-28s", fmt.Sprintf("%s ±%.0f%%", d.Name, d.Bound*100))
	}
	fmt.Fprintln(stdout)
	regressions, unresolved := 0, 0
	for _, wl := range spec.Workloads {
		fmt.Fprintf(stdout, "%-14s", wl.Name)
		for _, d := range spec.EndToEnd {
			va, vb := a.values(wl.Name, false, d.Name), b.values(wl.Name, false, d.Name)
			v := judge(d, va, vb)
			switch v.word {
			case "REGRESSION":
				regressions++
			case "unresolved":
				unresolved++
			}
			cell := v.word
			if v.word != "n/a" {
				cell = fmt.Sprintf("%s (%+.1f%%, s %.1f%%, n %d/%d)", v.word, v.worse*100, v.spread*100, len(va), len(vb))
			}
			fmt.Fprintf(stdout, " | %-28s", cell)
		}
		fmt.Fprintln(stdout)
	}

	changed := exactDiffs(a, b)
	if len(changed) == 0 {
		fmt.Fprintln(stdout, "exact metrics: identical on every (workload, seed) both recordings share")
	}
	for _, line := range changed {
		fmt.Fprintln(stdout, "exact metric CHANGED:", line)
	}
	fmt.Fprintf(stdout, "%d regression(s), %d unresolved cell(s), %d exact metric(s) changed\n", regressions, unresolved, len(changed))
	if regressions > 0 {
		return 1
	}
	return 0
}

// exactDiffs pairs runs by (workload, trace, seed) and reports every exact
// metric whose value differs between the two recordings.
func exactDiffs(a, b *recording) []string {
	type key struct {
		workload string
		trace    bool
		seed     int64
	}
	index := map[key]record{}
	for _, rec := range a.Records {
		index[key{rec.Workload, rec.Trace, rec.Env.Seed}] = rec
	}
	var out []string
	for _, rb := range b.Records {
		ra, ok := index[key{rb.Workload, rb.Trace, rb.Env.Seed}]
		if !ok {
			continue
		}
		for _, name := range exactMetrics {
			va, okA := ra.Result.Metrics[name]
			vb, okB := rb.Result.Metrics[name]
			if okA && okB && va.Value != vb.Value {
				out = append(out, fmt.Sprintf("%s seed %d %s: %v -> %v", rb.Workload, rb.Env.Seed, name, va.Value, vb.Value))
			}
		}
	}
	sort.Strings(out)
	return out
}
