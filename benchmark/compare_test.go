package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "latency_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "throughput_ops_s", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(v []float64, f float64) []float64 {
		out := make([]float64, len(v))
		for i, x := range v {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{100, 130, 80, 120, 70, 110, 90, 140, 60, 100}
	cases := []struct {
		name string
		def  metricDef
		a, b []float64
		want string
	}{
		{"same", lower, steady, steady, "ok"},
		{"5% slower is inside the bound", lower, steady, shift(steady, 1.05), "ok"},
		{"20% slower regresses", lower, steady, shift(steady, 1.20), "REGRESSION"},
		{"20% less throughput regresses", higher, steady, shift(steady, 0.80), "REGRESSION"},
		{"20% more throughput is better", higher, steady, shift(steady, 1.20), "better"},
		{"every run faster is better", lower, steady, shift(steady, 0.5), "better"},
		{"wide spread cannot be called unchanged", lower, noisy, noisy, "unresolved"},
		{"wide spread but every run better", lower, noisy, shift(noisy, 0.3), "better"},
		{"no runs", lower, nil, steady, "n/a"},
	}
	for _, c := range cases {
		if got := judge(c.def, c.a, c.b); got.word != c.want {
			t.Errorf("%s: %s (worse %.3f spread %.3f), want %s", c.name, got.word, got.worse, got.spread, c.want)
		}
	}
}

func rec(workload string, seed int64, trace bool, metrics map[string]float64) record {
	r := record{Workload: workload, Trace: trace, Seconds: 20, Env: envStamp{CPUModel: "cpu", NProc: 2, GOMAXPROCS: 2, Kernels: "avx2", Seed: seed}}
	r.Result.Correct, r.Result.Attempted = true, 1
	r.Result.Metrics = map[string]metricValue{}
	for k, v := range metrics {
		r.Result.Metrics[k] = metricValue{Value: v}
	}
	return r
}

func TestCompareExitCodesAndExactMetrics(t *testing.T) {
	spec := &benchSpec{EndToEnd: []metricDef{{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10}}}
	spec.Workloads = append(spec.Workloads, struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}{Name: "serve_hot"})
	var a, slow, same recording
	for seed := int64(1); seed <= 4; seed++ {
		a.Records = append(a.Records, rec("serve_hot", seed, false, map[string]float64{"latency_p50_ms": 7 + float64(seed)/100, "precision_bits": 18.25}))
		same.Records = append(same.Records, rec("serve_hot", seed, false, map[string]float64{"latency_p50_ms": 7.02 + float64(seed)/100, "precision_bits": 18.25}))
		slow.Records = append(slow.Records, rec("serve_hot", seed, false, map[string]float64{"latency_p50_ms": 9 + float64(seed)/100, "precision_bits": 17}))
	}
	var out, errOut bytes.Buffer
	if code := compare(&a, &same, spec, &out, &errOut); code != 0 {
		t.Fatalf("A/A-like comparison exited %d:\n%s%s", code, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "exact metrics: identical") {
		t.Errorf("missing exact-metric line:\n%s", out.String())
	}
	out.Reset()
	if code := compare(&a, &slow, spec, &out, &errOut); code != 1 {
		t.Fatalf("regression exited %d:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "REGRESSION") || !strings.Contains(out.String(), "precision_bits: 18.25 -> 17") {
		t.Errorf("regression report incomplete:\n%s", out.String())
	}

	other := recording{Records: []record{rec("serve_hot", 1, false, map[string]float64{"latency_p50_ms": 7})}}
	other.Records[0].Env.NProc = 1
	if code := compare(&a, &other, spec, &out, &errOut); code != 2 || !strings.Contains(errOut.String(), "nproc") {
		t.Fatalf("recordings from different machines must be refused (exit %d): %s", code, errOut.String())
	}

	// run_seconds is part of the benchmark's identity: serve_churn's restore
	// cost grows with the operations run.
	short := recording{Records: []record{rec("serve_hot", 1, false, map[string]float64{"latency_p50_ms": 7})}}
	short.Records[0].Seconds = 10
	errOut.Reset()
	if code := compare(&a, &short, spec, &out, &errOut); code != 2 || !strings.Contains(errOut.String(), "different lengths") {
		t.Fatalf("recordings of different window lengths must be refused (exit %d): %s", code, errOut.String())
	}
}

func TestVoidAndIncorrectRunsAreNotCompared(t *testing.T) {
	good := rec("lib_deep", 1, false, map[string]float64{"latency_p50_ms": 90})
	void := rec("lib_deep", 2, false, map[string]float64{"latency_p50_ms": 900})
	void.Void = "too few samples"
	wrong := rec("lib_deep", 3, false, map[string]float64{"latency_p50_ms": 900})
	wrong.Result.Correct = false
	traced := rec("lib_deep", 4, true, map[string]float64{"latency_p50_ms": 900})
	r := recording{Records: []record{good, void, wrong, traced}}
	if got := r.values("lib_deep", false, "latency_p50_ms"); len(got) != 1 || got[0] != 90 {
		t.Fatalf("values = %v, want only the valid untraced run", got)
	}
}
