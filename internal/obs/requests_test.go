package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// TestRequestNilSafety: every accessor and mutator must be a no-op on a nil
// *Request and a nil *RequestTable, matching the package's disabled-is-free
// convention.
func TestRequestNilSafety(t *testing.T) {
	var r *Request
	r.SetSession("s")
	r.SetPhase(PhaseQueued)
	r.SetUnits(1)
	r.SetBatch(1)
	r.SetFingerprint("fp")
	r.SetDeadline(time.Now())
	r.SetOutcome("ok")
	if r.Session() != "" || r.Outcome() != "" || r.Units() != 0 || r.Batch() != 0 ||
		r.Fingerprint() != "" || r.QueueWait() != 0 {
		t.Fatal("nil *Request accessors must return zero values")
	}
	var tab *RequestTable
	tab.Begin(&Request{ID: "x"})
	tab.End(&Request{ID: "x"})
	if tab.Len() != 0 || tab.Snapshot() != nil {
		t.Fatal("nil *RequestTable must be inert")
	}
}

// TestRequestLifecycle walks a request through the phase machine and checks
// the derived queue-wait plus the first-write-wins outcome rule.
func TestRequestLifecycle(t *testing.T) {
	r := &Request{ID: "r1", Op: "POST /v1/x", Start: time.Now()}
	r.SetPhase(PhaseReceived)
	if r.QueueWait() != 0 {
		t.Fatal("queue wait before queueing must be 0")
	}
	r.SetPhase(PhaseQueued)
	time.Sleep(time.Millisecond)
	r.SetPhase(PhaseExecuting)
	if qw := r.QueueWait(); qw <= 0 {
		t.Fatalf("queue wait = %v, want > 0 after queued->executing", qw)
	}
	qw := r.QueueWait()
	// A later batched stamp must not move the recorded execution start.
	r.SetPhase(PhaseBatched)
	if r.QueueWait() != qw {
		t.Fatal("execAt must be stamped once")
	}
	r.SetOutcome("deadline")
	r.SetOutcome("error") // loses: first non-empty write wins
	if got := r.Outcome(); got != "deadline" {
		t.Fatalf("outcome = %q, want deadline", got)
	}
}

// TestRequestTableSnapshotAndHandler: the table tracks the in-flight set,
// keeps its gauge in sync, orders snapshots oldest-first and serves the
// documented {"count", "requests"} JSON shape.
func TestRequestTableSnapshotAndHandler(t *testing.T) {
	reg := New().Reg()
	tab := NewRequestTable(reg)
	old := &Request{ID: "old", Op: "GET /a", Start: time.Now().Add(-time.Second)}
	young := &Request{ID: "young", Op: "GET /b", Start: time.Now()}
	young.SetSession("sess-1")
	young.SetUnits(2.5)
	young.SetDeadline(time.Now().Add(time.Minute))
	tab.Begin(old)
	tab.Begin(young)
	if tab.Len() != 2 {
		t.Fatalf("Len = %d, want 2", tab.Len())
	}
	if g := reg.Gauge("http.requests.inflight").Value(); g != 2 {
		t.Fatalf("inflight gauge = %d, want 2", g)
	}
	snap := tab.Snapshot()
	if len(snap) != 2 || snap[0].ID != "old" || snap[1].ID != "young" {
		t.Fatalf("snapshot order = %+v, want oldest first", snap)
	}
	if snap[1].Session != "sess-1" || snap[1].Units != 2.5 || snap[1].DeadlineRemainingMs <= 0 {
		t.Fatalf("annotations missing from snapshot row: %+v", snap[1])
	}

	rec := httptest.NewRecorder()
	tab.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/requests", nil))
	var body struct {
		Count    int               `json:"count"`
		Requests []RequestSnapshot `json:"requests"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("handler body %q: %v", rec.Body.String(), err)
	}
	if body.Count != 2 || len(body.Requests) != 2 {
		t.Fatalf("handler = %+v, want count 2", body)
	}

	tab.End(old)
	tab.End(young)
	if tab.Len() != 0 || reg.Gauge("http.requests.inflight").Value() != 0 {
		t.Fatal("table must drain to empty and zero the gauge")
	}
}

// TestTracerLiveDropCounter pins the satellite contract: overflow is not
// only summarised at export time, it increments a live registry counter the
// moment events are lost.
func TestTracerLiveDropCounter(t *testing.T) {
	o := NewTracing(8) // tiny buffer; NewTracing wires obs.trace.dropped
	tr := o.Tr()
	for i := 0; i < 20; i++ {
		tr.Complete("ev", "test", 0, 0, float64(i), 1, Args{})
	}
	if got := tr.Dropped(); got != 12 {
		t.Fatalf("Dropped = %d, want 12", got)
	}
	if got := o.Reg().Counter("obs.trace.dropped").Value(); got != 12 {
		t.Fatalf("obs.trace.dropped counter = %d, want 12", got)
	}
	// The counter also appears in the snapshot operators actually scrape.
	if got := o.Snapshot().Counters["obs.trace.dropped"]; got != 12 {
		t.Fatalf("snapshot counter = %d, want 12", got)
	}
}

// TestOnScrapeHook: scrape hooks run at every Snapshot, so derived gauges
// (the serving layer's latency quantiles) refresh lazily per scrape.
func TestOnScrapeHook(t *testing.T) {
	reg := New().Reg()
	h := reg.Histogram("lat")
	p99 := reg.Gauge("lat.p99")
	reg.OnScrape(func() { p99.Set(int64(h.Quantile(0.99))) })
	for i := int64(1); i <= 100; i++ {
		h.Observe(i * 10)
	}
	snap := reg.Snapshot()
	got := snap.Gauges["lat.p99"]
	if got < 500 || got > 2000 {
		t.Fatalf("lat.p99 after scrape = %d, want within factor 2 of 1000", got)
	}
}

// TestNewLoggerJSONLines: the logger emits one parseable JSON object per
// record with the standard slog fields, even under concurrent writers.
func TestNewLoggerJSONLines(t *testing.T) {
	var buf bytes.Buffer
	lg := NewLogger(&buf, slog.LevelInfo)
	lg.Debug("dropped", "k", "v") // below level: must not appear
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			lg.Info("request", slog.Int("worker", n), slog.String("id", "abc"))
		}(i)
	}
	wg.Wait()
	lines := 0
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var rec map[string]any
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("non-JSON log line %q: %v", sc.Text(), err)
		}
		for _, k := range []string{"time", "level", "msg", "worker", "id"} {
			if _, ok := rec[k]; !ok {
				t.Fatalf("log record missing %q: %v", k, rec)
			}
		}
		if rec["msg"] != "request" {
			t.Fatalf("msg = %v, want request", rec["msg"])
		}
		lines++
	}
	if lines != 8 {
		t.Fatalf("got %d log lines, want 8 (debug suppressed)", lines)
	}
}

// TestParseLogLevel maps flag strings onto slog levels with an info default.
func TestParseLogLevel(t *testing.T) {
	cases := map[string]slog.Level{
		"debug": slog.LevelDebug,
		"info":  slog.LevelInfo,
		"warn":  slog.LevelWarn,
		"error": slog.LevelError,
		"":      slog.LevelInfo,
		"bogus": slog.LevelInfo,
	}
	for in, want := range cases {
		if got := ParseLogLevel(in); got != want {
			t.Fatalf("ParseLogLevel(%q) = %v, want %v", in, got, want)
		}
	}
}
