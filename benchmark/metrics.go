package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// metricDef is one metric as BENCHMARK.json declares it.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is BENCHMARK.json. The harness reads units, directions and
// bounds from it instead of repeating them, so the file the driver checks
// and the numbers the harness prints cannot drift apart.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadSpec(root string) (*benchSpec, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects measured values by name. A per-layer metric a workload
// has no way to exercise (fastd.* on a library workload, say) is left unset
// and reported as 0 — the contract wants every declared metric on every
// workload; the README lists which cells are not applicable.
type metricSet map[string]float64

// report orders a metricSet by the spec's declaration and attaches units. It
// fails on a measured name the spec does not declare: an undeclared metric is
// a typo that would otherwise vanish silently.
func (m metricSet) report(defs []metricDef, requireAll bool) (map[string]metricValue, error) {
	declared := make(map[string]bool, len(defs))
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		declared[d.Name] = true
		v, ok := m[d.Name]
		if !ok && requireAll {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	for name := range m {
		if !declared[name] {
			return nil, fmt.Errorf("metric %s is measured but not declared in BENCHMARK.json", name)
		}
	}
	return out, nil
}

// result is the last line of standard output: the contract's four keys.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is what the harness writes to benchmark/out/<workload>.json: the
// result plus what a reader needs to judge it — the environment stamp, sample
// counts behind every percentile, and any reason the run was voided.
type record struct {
	Workload string         `json:"workload"`
	Trace    bool           `json:"trace"`
	Seconds  float64        `json:"seconds"`
	Env      envStamp       `json:"env"`
	Result   result         `json:"result"`
	Samples  map[string]int `json:"samples"`
	Setups   []float64      `json:"setup_s_each,omitempty"`
	Void     string         `json:"void,omitempty"`
}
