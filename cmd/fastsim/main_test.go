package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// -trace-out on the bootstrap workload must produce a valid Chrome
// trace-event JSON file: a traceEvents array whose complete events carry the
// required fields on the simulator's pid, plus metadata naming the tracks.
func TestTraceOutWritesValidChromeTrace(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.json")
	var out bytes.Buffer
	if err := run([]string{"-workload", "bootstrap", "-trace-out", path}, &out); err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			TS   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			PID  int     `json:"pid"`
			TID  int     `json:"tid"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatalf("trace file is not valid JSON: %v", err)
	}
	if file.DisplayTimeUnit == "" {
		t.Error("missing displayTimeUnit")
	}
	var spans, meta int
	for i, ev := range file.TraceEvents {
		switch ev.Ph {
		case "X":
			spans++
			if ev.Name == "" || ev.TS < 0 || ev.Dur <= 0 {
				t.Fatalf("event %d malformed: %+v", i, ev)
			}
		case "M":
			meta++
		case "i":
		default:
			t.Fatalf("event %d has unknown phase %q", i, ev.Ph)
		}
	}
	if spans == 0 {
		t.Fatal("trace has no complete spans")
	}
	if meta == 0 {
		t.Fatal("trace has no metadata (process/thread names)")
	}
	if !strings.Contains(out.String(), "wrote Chrome trace") {
		t.Errorf("run output missing trace confirmation:\n%s", out.String())
	}
}

// -metrics-out must dump a registry snapshot with the simulator gauges.
func TestMetricsOutWritesSnapshot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.json")
	var out bytes.Buffer
	if err := run([]string{"-workload", "resnet20", "-metrics-out", path}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Counters    map[string]uint64  `json:"counters"`
		FloatGauges map[string]float64 `json:"float_gauges"`
	}
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v", err)
	}
	if snap.FloatGauges["sim.cycles"] <= 0 {
		t.Errorf("sim.cycles gauge = %g, want > 0", snap.FloatGauges["sim.cycles"])
	}
	if len(snap.Counters) == 0 {
		t.Error("snapshot has no counters")
	}
}

// -http must serve Prometheus text on /metrics and expvar JSON on
// /debug/vars; the smoke test scrapes both in-process via the test hooks.
func TestHTTPServesMetricsAndVars(t *testing.T) {
	oldStarted, oldWait := httpStarted, httpWait
	defer func() { httpStarted, httpWait = oldStarted, oldWait }()

	var addr net.Addr
	httpStarted = func(a net.Addr) { addr = a }
	httpWait = func() {
		if addr == nil {
			t.Fatal("httpStarted not called before httpWait")
		}
		base := "http://" + addr.String()

		resp, err := http.Get(base + "/metrics")
		if err != nil {
			t.Fatalf("GET /metrics: %v", err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /metrics: status %d", resp.StatusCode)
		}
		if !strings.Contains(string(body), "# TYPE sim_cycles gauge") {
			t.Errorf("/metrics missing sim_cycles gauge:\n%.400s", body)
		}
		if !strings.Contains(string(body), "hemera_pool_") {
			t.Errorf("/metrics missing hemera pool counters:\n%.400s", body)
		}

		resp, err = http.Get(base + "/debug/vars")
		if err != nil {
			t.Fatalf("GET /debug/vars: %v", err)
		}
		body, _ = io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /debug/vars: status %d", resp.StatusCode)
		}
		var vars map[string]json.RawMessage
		if err := json.Unmarshal(body, &vars); err != nil {
			t.Fatalf("/debug/vars is not valid JSON: %v\n%.400s", err, body)
		}
		for _, key := range []string{"memstats", "fast"} {
			if _, ok := vars[key]; !ok {
				t.Errorf("/debug/vars missing %q key", key)
			}
		}

		resp, err = http.Get(base + "/debug/pprof/cmdline")
		if err != nil {
			t.Fatalf("GET /debug/pprof/cmdline: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET /debug/pprof/cmdline: status %d", resp.StatusCode)
		}
	}

	var out bytes.Buffer
	if err := run([]string{"-workload", "bootstrap", "-http", "127.0.0.1:0"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
}

// The plain CLI paths must keep working.
func TestRunPlainAndSweep(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-workload", "bootstrap", "-config", "sharp"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "workload") {
		t.Errorf("unexpected output:\n%s", out.String())
	}
	out.Reset()
	if err := run([]string{"-sweep", "clusters", "-workload", "resnet20"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out.String(), "name,clusters,") {
		t.Errorf("sweep CSV header missing:\n%.200s", out.String())
	}
	if err := run([]string{"-workload", "nope"}, io.Discard); err == nil {
		t.Error("expected error for unknown workload")
	}
}

// -sweep must plan every swept configuration as -plan says: a one-method
// (oneksw) sweep differs from the default aether sweep, and an unknown plan
// is refused rather than silently ignored.
func TestSweepHonoursPlan(t *testing.T) {
	for _, kind := range []string{"clusters", "memory"} {
		t.Run(kind, func(t *testing.T) {
			if def, one := runSweepCSV(t, kind), runSweepCSV(t, kind, "-plan", "oneksw"); def == one {
				t.Errorf("-plan oneksw sweep is identical to the default sweep:\n%s", def)
			}
			if err := run([]string{"-sweep", kind, "-plan", "bogus"}, io.Discard); err == nil {
				t.Error("expected error for unknown plan with -sweep")
			}
		})
	}
}

// runSweepCSV returns the bootstrap -sweep kind CSV under extra flags.
func runSweepCSV(t *testing.T, kind string, args ...string) string {
	t.Helper()
	var b bytes.Buffer
	if err := run(append([]string{"-workload", "bootstrap", "-sweep", kind}, args...), &b); err != nil {
		t.Fatalf("run -sweep %s %v: %v", kind, args, err)
	}
	return b.String()
}

// The clusters sweep keeps the base config unchanged at its own cluster
// count, so under every -plan that row must report what a single run of the
// same plan does.
func TestSweepBaseRowMatchesSingleRun(t *testing.T) {
	for _, plan := range []string{"", "aether", "hoisting", "oneksw"} {
		name := plan
		if name == "" {
			name = "default"
		}
		t.Run(name, func(t *testing.T) {
			var b bytes.Buffer
			if err := run([]string{"-workload", "bootstrap", "-plan", plan, "-json"}, &b); err != nil {
				t.Fatal(err)
			}
			var res struct {
				TimeMS   float64
				EvkBytes int64
			}
			if err := json.Unmarshal(b.Bytes(), &res); err != nil {
				t.Fatal(err)
			}
			want := fmt.Sprintf("FAST,4,281,%.4f,", res.TimeMS)
			wantEvk := fmt.Sprintf(",%.1f,", float64(res.EvkBytes)/(1<<20))
			csv := runSweepCSV(t, "clusters", "-plan", plan)
			for _, row := range strings.Split(csv, "\n") {
				if strings.HasPrefix(row, want) {
					if !strings.Contains(row, wantEvk) {
						t.Errorf("base row %q: evk_mb differs from the single run's %s", row, wantEvk)
					}
					return
				}
			}
			t.Errorf("no sweep row starts with %q:\n%s", want, csv)
		})
	}
}
