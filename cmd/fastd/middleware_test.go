package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	fast "github.com/fastfhe/fast"
	"github.com/fastfhe/fast/internal/obs"
)

// lockedBuffer lets the test read the access log while the daemon's logger
// may still be writing to it.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func isLowerHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) {
			return false
		}
	}
	return len(s) > 0
}

// TestRequestIDAssignedAndEchoed: a request without correlation headers gets
// a fresh 32-hex ID, echoed on the response.
func TestRequestIDAssignedAndEchoed(t *testing.T) {
	_, ts := newTestDaemon(t, daemonConfig{Workers: 1})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	id := resp.Header.Get("X-Request-Id")
	if len(id) != 32 || !isLowerHex(id) {
		t.Fatalf("X-Request-Id = %q, want 32 lowercase hex chars", id)
	}
	if resp.Header.Get("traceparent") != "" {
		t.Fatal("no inbound traceparent: response must not invent one")
	}
}

// TestRequestIDHonoredAndSanitized: a well-formed client ID is echoed
// verbatim; a hostile one is discarded for a fresh assignment.
func TestRequestIDHonoredAndSanitized(t *testing.T) {
	_, ts := newTestDaemon(t, daemonConfig{Workers: 1})
	cases := []struct {
		in     string
		echoed bool
	}{
		{"client-id_42.abc", true},
		{"ABCdef0123", true},
		{strings.Repeat("a", 128), true},
		{strings.Repeat("a", 129), false}, // too long
		{"bad id with spaces", false},
		{"quote\"and{brace", false},
	}
	for _, tc := range cases {
		req, _ := http.NewRequest("GET", ts.URL+"/healthz", nil)
		req.Header.Set("X-Request-Id", tc.in)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		got := resp.Header.Get("X-Request-Id")
		if tc.echoed && got != tc.in {
			t.Fatalf("id %q: echoed %q, want verbatim", tc.in, got)
		}
		if !tc.echoed {
			if got == tc.in {
				t.Fatalf("hostile id %q echoed verbatim", tc.in)
			}
			if len(got) != 32 || !isLowerHex(got) {
				t.Fatalf("hostile id %q: replacement %q is not a fresh 32-hex ID", tc.in, got)
			}
		}
	}
}

// TestSanitizeRequestID covers the byte-level rejections the HTTP client
// itself refuses to send (header-splitting and log-injection payloads).
func TestSanitizeRequestID(t *testing.T) {
	for _, bad := range []string{
		"", "inject\x00null", "newline\nSet-Cookie: x", "cr\rhere",
		"tab\there", "ünïcode", strings.Repeat("x", 129),
	} {
		if got := sanitizeRequestID(bad); got != "" {
			t.Fatalf("sanitizeRequestID(%q) = %q, want rejection", bad, got)
		}
	}
	for _, good := range []string{"a", "A-Z_0.9", strings.Repeat("x", 128)} {
		if got := sanitizeRequestID(good); got != good {
			t.Fatalf("sanitizeRequestID(%q) = %q, want verbatim", good, got)
		}
	}
}

// TestTraceparentRoundTrip: an inbound traceparent is returned with the same
// trace-id and flags but a fresh span-id, and the trace-id becomes the
// request ID.
func TestTraceparentRoundTrip(t *testing.T) {
	_, ts := newTestDaemon(t, daemonConfig{Workers: 1})
	const traceID = "4bf92f3577b34da6a3ce929d0e0e4736"
	const spanID = "00f067aa0ba902b7"
	req, _ := http.NewRequest("GET", ts.URL+"/healthz", nil)
	req.Header.Set("traceparent", "00-"+traceID+"-"+spanID+"-01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	tp, ok := obs.ParseTraceparent(resp.Header.Get("traceparent"))
	if !ok {
		t.Fatalf("response traceparent %q does not parse", resp.Header.Get("traceparent"))
	}
	if tp.TraceID != traceID {
		t.Fatalf("trace-id changed: got %s, want %s", tp.TraceID, traceID)
	}
	if tp.SpanID == spanID {
		t.Fatal("span-id must be replaced with this hop's")
	}
	if tp.Flags != "01" {
		t.Fatalf("flags = %s, want 01 preserved", tp.Flags)
	}
	if got := resp.Header.Get("X-Request-Id"); got != traceID {
		t.Fatalf("X-Request-Id = %q, want the trace-id %s", got, traceID)
	}

	// An explicit X-Request-Id wins over the traceparent trace-id.
	req2, _ := http.NewRequest("GET", ts.URL+"/healthz", nil)
	req2.Header.Set("traceparent", "00-"+traceID+"-"+spanID+"-01")
	req2.Header.Set("X-Request-Id", "explicit-id")
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if got := resp2.Header.Get("X-Request-Id"); got != "explicit-id" {
		t.Fatalf("X-Request-Id = %q, want explicit-id", got)
	}
}

// TestRequestIDUniqueUnderConcurrentLoad hammers the middleware from many
// goroutines (run with -race in CI) and checks every assigned ID is unique.
func TestRequestIDUniqueUnderConcurrentLoad(t *testing.T) {
	_, ts := newTestDaemon(t, daemonConfig{Workers: 2})
	const goroutines, per = 8, 25
	var mu sync.Mutex
	seen := make(map[string]struct{}, goroutines*per)
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				resp, err := http.Get(ts.URL + "/healthz")
				if err != nil {
					errs <- err
					return
				}
				resp.Body.Close()
				id := resp.Header.Get("X-Request-Id")
				mu.Lock()
				_, dup := seen[id]
				seen[id] = struct{}{}
				mu.Unlock()
				if dup {
					t.Errorf("duplicate request ID %q", id)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if len(seen) != goroutines*per {
		t.Fatalf("got %d unique IDs, want %d", len(seen), goroutines*per)
	}
}

// accessLogLines parses every JSON record the daemon logged so far.
func accessLogLines(t *testing.T, buf *lockedBuffer) []map[string]any {
	t.Helper()
	var out []map[string]any
	sc := bufio.NewScanner(strings.NewReader(buf.String()))
	for sc.Scan() {
		var rec map[string]any
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("access log line is not JSON: %q: %v", sc.Text(), err)
		}
		out = append(out, rec)
	}
	return out
}

// waitForLogLines polls until the access log holds at least n records (the
// log line lands after the response body is flushed, so the client can
// observe the reply before the record exists).
func waitForLogLines(t *testing.T, buf *lockedBuffer, n int) []map[string]any {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		recs := accessLogLines(t, buf)
		if len(recs) >= n {
			return recs
		}
		if time.Now().After(deadline) {
			t.Fatalf("access log has %d records, want >= %d:\n%s", len(recs), n, buf.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestAccessLogSchema: one request yields one JSON access-log record whose
// fields join against the response headers, with outcome classified from
// the status fallback ("ok" below 400, "error" at or above).
func TestAccessLogSchema(t *testing.T) {
	buf := &lockedBuffer{}
	_, ts := newTestDaemon(t, daemonConfig{
		Workers: 1,
		Logger:  obs.NewLogger(buf, slog.LevelInfo),
	})

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	wantID := resp.Header.Get("X-Request-Id")

	resp404, err := http.Get(ts.URL + "/no/such/route")
	if err != nil {
		t.Fatal(err)
	}
	resp404.Body.Close()

	recs := waitForLogLines(t, buf, 2)
	byPath := map[string]map[string]any{}
	for _, rec := range recs {
		if rec["msg"] != "request" {
			t.Fatalf("msg = %v, want request", rec["msg"])
		}
		for _, k := range []string{"id", "method", "path", "status", "outcome", "dur_ms", "bytes"} {
			if _, ok := rec[k]; !ok {
				t.Fatalf("record missing %q: %v", k, rec)
			}
		}
		byPath[rec["path"].(string)] = rec
	}
	ok := byPath["/healthz"]
	if ok == nil || ok["id"] != wantID || ok["status"].(float64) != 200 || ok["outcome"] != "ok" {
		t.Fatalf("healthz record wrong: %v (want id %s, status 200, outcome ok)", ok, wantID)
	}
	bad := byPath["/no/such/route"]
	if bad == nil || bad["status"].(float64) != 404 || bad["outcome"] != "error" {
		t.Fatalf("404 record wrong: %v", bad)
	}
}

// TestAccessLogOutcomeFromLadder: a typed admission rejection logs its exact
// degradation-ladder rung, not the generic status fallback. Draining is the
// one rung that is fully deterministic to trigger.
func TestAccessLogOutcomeFromLadder(t *testing.T) {
	buf := &lockedBuffer{}
	d, ts := newTestDaemon(t, daemonConfig{
		Workers: 1,
		Logger:  obs.NewLogger(buf, slog.LevelInfo),
	})
	base := ts.URL
	sid := createSession(t, base, testSessionRequest()).ID
	ct := encryptValues(t, base, sid, []complex128{1 + 2i})

	drainCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := d.drain(drainCtx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	status, _ := doJSON(t, "POST", base+"/v1/sessions/"+sid+"/eval", nil, evalOf(
		fast.NewProgram().In("x").Mul("y", "x", "x", hybrid).Return("y"), ct.Ciphertext), nil)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("eval while draining: status %d, want 503", status)
	}
	recs := waitForLogLines(t, buf, 3) // session create + encrypt + eval
	var evalRec map[string]any
	for _, rec := range recs {
		if p, _ := rec["path"].(string); strings.HasSuffix(p, "/eval") {
			evalRec = rec
		}
	}
	if evalRec == nil {
		t.Fatalf("no eval record in access log:\n%s", buf.String())
	}
	if evalRec["outcome"] != "draining" {
		t.Fatalf("eval outcome = %v, want draining", evalRec["outcome"])
	}
	if evalRec["status"].(float64) != 503 {
		t.Fatalf("eval status = %v, want 503", evalRec["status"])
	}
}

// TestSlowRequestLog: above the threshold, a second warn-level record lands
// with the threshold attached.
func TestSlowRequestLog(t *testing.T) {
	buf := &lockedBuffer{}
	_, ts := newTestDaemon(t, daemonConfig{
		Workers:     1,
		Logger:      obs.NewLogger(buf, slog.LevelInfo),
		SlowRequest: time.Nanosecond, // everything is slow
	})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	recs := waitForLogLines(t, buf, 2)
	var slow map[string]any
	for _, rec := range recs {
		if rec["msg"] == "slow request" {
			slow = rec
		}
	}
	if slow == nil {
		t.Fatalf("no slow-request record:\n%s", buf.String())
	}
	if slow["level"] != "WARN" {
		t.Fatalf("slow record level = %v, want WARN", slow["level"])
	}
	if _, ok := slow["threshold_ms"]; !ok {
		t.Fatalf("slow record missing threshold_ms: %v", slow)
	}
}
