package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func get(t *testing.T, srv *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	return resp.StatusCode, string(body)
}

func TestHandlerEndpoints(t *testing.T) {
	o := NewTracing(64)
	o.Reg().Counter("test.requests").Add(42)
	o.Reg().Histogram("test.latency_ns").Observe(1000)
	o.Tr().Complete("kernel", "sim", 0, 0, 0, 10, Args{})

	srv := httptest.NewServer(o.Handler())
	defer srv.Close()

	code, body := get(t, srv, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	if !strings.Contains(body, "test_requests 42") {
		t.Errorf("/metrics missing counter:\n%s", body)
	}
	if !strings.Contains(body, "# TYPE test_latency_ns histogram") {
		t.Errorf("/metrics missing histogram:\n%s", body)
	}

	code, body = get(t, srv, "/debug/vars")
	if code != http.StatusOK {
		t.Fatalf("/debug/vars status %d", code)
	}
	var vars map[string]any
	if err := json.Unmarshal([]byte(body), &vars); err != nil {
		t.Fatalf("/debug/vars not JSON: %v\n%s", err, body)
	}
	// expvar's init publishes cmdline and memstats; our snapshot rides under
	// "fast".
	for _, key := range []string{"cmdline", "memstats", "fast"} {
		if _, ok := vars[key]; !ok {
			t.Errorf("/debug/vars missing %q (have %d keys)", key, len(vars))
		}
	}
	snap, _ := vars["fast"].(map[string]any)
	counters, _ := snap["counters"].(map[string]any)
	if counters["test.requests"] != float64(42) {
		t.Errorf("/debug/vars fast.counters = %v", counters)
	}

	code, body = get(t, srv, "/snapshot.json")
	if code != http.StatusOK {
		t.Fatalf("/snapshot.json status %d", code)
	}
	var s Snapshot
	if err := json.Unmarshal([]byte(body), &s); err != nil {
		t.Fatalf("/snapshot.json decode: %v", err)
	}
	if s.Counters["test.requests"] != 42 {
		t.Errorf("snapshot counters = %v", s.Counters)
	}

	code, body = get(t, srv, "/trace.json")
	if code != http.StatusOK {
		t.Fatalf("/trace.json status %d", code)
	}
	var ct struct {
		TraceEvents []Event `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(body), &ct); err != nil {
		t.Fatalf("/trace.json decode: %v", err)
	}
	if len(ct.TraceEvents) != 1 || ct.TraceEvents[0].Name != "kernel" {
		t.Errorf("/trace.json events = %+v", ct.TraceEvents)
	}

	code, body = get(t, srv, "/trace.txt")
	if code != http.StatusOK || !strings.Contains(body, "sim/kernel") {
		t.Errorf("/trace.txt (%d):\n%s", code, body)
	}

	code, _ = get(t, srv, "/debug/pprof/")
	if code != http.StatusOK {
		t.Errorf("/debug/pprof/ status %d", code)
	}
	code, _ = get(t, srv, "/debug/pprof/goroutine?debug=1")
	if code != http.StatusOK {
		t.Errorf("/debug/pprof/goroutine status %d", code)
	}

	code, _ = get(t, srv, "/nope")
	if code != http.StatusNotFound {
		t.Errorf("unknown path status %d", code)
	}
}

func TestServeBindsAndShutsDown(t *testing.T) {
	o := New()
	addr, shutdown, err := o.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr.String() + "/metrics")
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if err := shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}
