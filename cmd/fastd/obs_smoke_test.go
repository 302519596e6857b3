package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	fast "github.com/fastfhe/fast"
)

// TestObsSmoke is the observability acceptance path, also run standalone via
// `make obs-smoke`: boot the real daemon through run(), drive one evaluation
// with a known request ID, then hold every surface to its contract — the
// access log is JSON lines with the documented schema, /debug/requests
// serves the in-flight table shape, /metrics is valid Prometheus text with
// the latency quantile gauges, /readyz carries the same quantiles, and the
// Chrome trace attributes HTTP and kernel spans to that one request ID, a
// restore's time decomposes into the fastd.restore.*_ns phase histograms, the
// idempotency counters are the ring's, and after more spans than the trace
// ring holds the export carries the newest while the idempotency ring stays
// within its IdemCap slots.
func TestObsSmoke(t *testing.T) {
	logPath := filepath.Join(t.TempDir(), "access.log")
	stateDir := t.TempDir()

	oldStarted, oldWait := httpStarted, httpWait
	defer func() { httpStarted, httpWait = oldStarted, oldWait }()
	var addr net.Addr
	httpStarted = func(a net.Addr) { addr = a }
	httpWait = func() {
		base := "http://" + addr.String()
		const reqID = "obs-smoke-eval-1"

		// One full request: create a keyspace, encrypt, evaluate x*x with a
		// pinned request ID, decrypt.
		sid := createSession(t, base, testSessionRequest()).ID
		ct := encryptValues(t, base, sid, []complex128{3 + 0i})
		var er struct {
			Ciphertext string `json:"ciphertext"`
		}
		status, raw := doJSON(t, http.MethodPost, base+"/v1/sessions/"+sid+"/eval",
			map[string]string{"X-Request-Id": reqID}, evalOf(
				fast.NewProgram().In("x").Mul("y", "x", "x", hybrid).Return("y"), ct.Ciphertext), &er)
		if status != http.StatusOK {
			t.Fatalf("eval: status %d: %s", status, raw)
		}
		got := decryptValues(t, base, sid, er.Ciphertext)
		if len(got) == 0 || real(got[0]) < 8.5 || real(got[0]) > 9.5 {
			t.Fatalf("eval result %v, want ~9", got)
		}

		assertDebugRequests(t, base)
		assertPrometheusText(t, base)
		assertReadyzQuantiles(t, base)
		assertTraceCorrelation(t, base, reqID)
		assertDebugPlans(t, base, reqID)
		assertRestoreSignals(t, base, sid, ct.Ciphertext)
		assertTraceRing(t, base, stateDir, sid, ct.Ciphertext, reqID)
	}

	var out bytes.Buffer
	if err := run([]string{
		"-addr", "127.0.0.1:0", "-workers", "1",
		"-access-log", logPath, "-slow-request-ms", "60000",
		"-state-dir", stateDir, "-max-resident-sessions", "1",
	}, &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}

	assertAccessLogFile(t, logPath)
}

// assertDebugRequests: the in-flight table serves {"count", "requests"} and,
// because the probing request itself is tabled while served, is never empty
// from its own point of view.
func assertDebugRequests(t *testing.T, base string) {
	t.Helper()
	resp, err := http.Get(base + "/debug/requests")
	if err != nil {
		t.Fatalf("GET /debug/requests: %v", err)
	}
	defer resp.Body.Close()
	var body struct {
		Count    int `json:"count"`
		Requests []struct {
			ID    string  `json:"id"`
			Op    string  `json:"op"`
			Phase string  `json:"phase"`
			AgeMs float64 `json:"age_ms"`
		} `json:"requests"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("decode /debug/requests: %v", err)
	}
	if body.Count < 1 || len(body.Requests) != body.Count {
		t.Fatalf("/debug/requests count=%d len=%d, want >=1 and consistent", body.Count, len(body.Requests))
	}
	var self bool
	for _, r := range body.Requests {
		if r.ID == "" || r.Op == "" || r.Phase == "" || r.AgeMs < 0 {
			t.Fatalf("malformed in-flight row: %+v", r)
		}
		if r.Op == "GET /debug/requests" {
			self = true
		}
	}
	if !self {
		t.Fatalf("the probing request is missing from its own in-flight table: %+v", body.Requests)
	}
}

// promLine matches one Prometheus text-format sample: name{labels} value.
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? [0-9eE+.\-]+$`)

// assertPrometheusText: every non-comment /metrics line is a well-formed
// sample, and the derived latency quantile gauges are exported.
func assertPrometheusText(t *testing.T, base string) {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	sc := bufio.NewScanner(strings.NewReader(text))
	samples := 0
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !promLine.MatchString(line) {
			t.Fatalf("invalid Prometheus sample line: %q", line)
		}
		samples++
	}
	if samples == 0 {
		t.Fatal("/metrics exposed no samples")
	}
	for _, want := range []string{
		"serve_latency_p50_ns", "serve_latency_p90_ns", "serve_latency_p99_ns",
		"serve_latency_ns_bucket", "http_requests_inflight", "obs_trace_dropped",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %s:\n%s", want, text)
		}
	}
}

// assertReadyzQuantiles: the same quantiles appear, dotted, in the readiness
// summary, alongside the in-flight count.
func assertReadyzQuantiles(t *testing.T, base string) {
	t.Helper()
	resp, err := http.Get(base + "/readyz")
	if err != nil {
		t.Fatalf("GET /readyz: %v", err)
	}
	defer resp.Body.Close()
	var body struct {
		Inflight int                `json:"inflight_requests"`
		Latency  map[string]float64 `json:"latency"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("decode /readyz: %v", err)
	}
	for _, k := range []string{"serve.latency.p50_ns", "serve.latency.p90_ns", "serve.latency.p99_ns"} {
		v, ok := body.Latency[k]
		if !ok {
			t.Fatalf("/readyz latency missing %s: %v", k, body.Latency)
		}
		if v <= 0 {
			t.Fatalf("/readyz %s = %g, want > 0 after serving requests", k, v)
		}
	}
	if body.Inflight < 1 { // the /readyz request itself
		t.Fatalf("/readyz inflight_requests = %d, want >= 1", body.Inflight)
	}
}

// assertTraceCorrelation: the Chrome trace carries the pinned request ID on
// the serving layer's HTTP span AND on evaluator-side spans — the end-to-end
// attribution the tentpole promises.
func assertTraceCorrelation(t *testing.T, base, reqID string) {
	t.Helper()
	resp, err := http.Get(base + "/trace.json")
	if err != nil {
		t.Fatalf("GET /trace.json: %v", err)
	}
	defer resp.Body.Close()
	var trace struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			PID  int            `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&trace); err != nil {
		t.Fatalf("decode /trace.json: %v", err)
	}
	pids := map[int]int{}
	for _, ev := range trace.TraceEvents {
		if ev.Ph != "X" || ev.Args == nil {
			continue
		}
		if id, _ := ev.Args["request_id"].(string); id == reqID {
			pids[ev.PID]++
		}
	}
	if pids[tracePIDServe] == 0 {
		t.Fatalf("no HTTP span carries request_id %s (pids seen: %v)", reqID, pids)
	}
	if pids[1] == 0 { // ckks evaluator pid
		t.Fatalf("no evaluator span carries request_id %s (pids seen: %v)", reqID, pids)
	}
}

// assertTraceRing emits more spans than the daemon's trace ring holds (the
// library default, 64k) and checks the export is a ring, not a keep-first
// buffer: it is not empty, its newest span is the last request's, the first
// eval's spans have been overwritten and counted as dropped, and the track
// names emitted at startup are still there. Every flood eval is keyed, and
// the session's idempotency ring grows by exactly one slot per key and never
// past magic + IdemCap slots.
func assertTraceRing(t *testing.T, base, stateDir, sid, ct, firstReqID string) {
	t.Helper()
	// 512 additions a request: one evaluator span each.
	prog := fast.NewProgram().In("x")
	reg := "x"
	for i := 0; i < 512; i++ {
		next := fmt.Sprintf("r%d", i)
		prog.Add(next, reg, "x")
		reg = next
	}
	body := evalOf(prog.Return(reg), ct)
	const lastReqID = "obs-smoke-last"
	ring := filepath.Join(stateDir, sid+".idem")
	fi, err := os.Stat(ring)
	if err != nil {
		t.Fatal(err)
	}
	size0 := fi.Size()
	const flood = 130
	for i := 0; i < flood; i++ { // 130 x (512 + 1 http) > 65536
		hdr := map[string]string{"Idempotency-Key": fmt.Sprint("flood-", i)}
		if i == 129 {
			hdr["X-Request-Id"] = lastReqID
		}
		if status, raw := doJSON(t, http.MethodPost, base+"/v1/sessions/"+sid+"/eval", hdr, body, nil); status != http.StatusOK {
			t.Fatalf("flood eval %d: status %d: %.200s", i, status, raw)
		}
	}
	var trace struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			PID  int            `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		Metadata struct {
			Dropped float64 `json:"dropped_events"`
		} `json:"metadata"`
	}
	if status, raw := doJSON(t, http.MethodGet, base+"/trace.json", nil, nil, &trace); status != http.StatusOK {
		t.Fatalf("GET /trace.json: status %d: %.200s", status, raw)
	}
	if len(trace.TraceEvents) < 1<<16 {
		t.Fatalf("trace export holds %d events after > 64k spans, want a full ring", len(trace.TraceEvents))
	}
	if trace.Metadata.Dropped == 0 {
		t.Fatal("trace export reports no dropped events after the ring wrapped")
	}
	var first, last, named bool
	for _, ev := range trace.TraceEvents {
		id, _ := ev.Args["request_id"].(string)
		first = first || id == firstReqID
		last = last || (id == lastReqID && ev.PID == tracePIDServe)
		named = named || (ev.Ph == "M" && ev.PID == tracePIDServe && ev.Args["name"] == "fastd http")
	}
	if first || !last || !named {
		t.Fatalf("after the wrap: first eval's spans present=%v (want overwritten), last request's HTTP span present=%v, track name present=%v",
			first, last, named)
	}
	var snap struct {
		Counters map[string]uint64 `json:"counters"`
	}
	doJSON(t, http.MethodGet, base+"/snapshot.json", nil, nil, &snap)
	if got := snap.Counters["obs.trace.dropped"]; got == 0 || float64(got) < trace.Metadata.Dropped {
		t.Fatalf("obs.trace.dropped = %d, export says %v", got, trace.Metadata.Dropped)
	}
	if fi, err = os.Stat(ring); err != nil {
		t.Fatal(err)
	}
	idemCap := daemonConfig{}.withDefaults().IdemCap
	if want := min(size0+flood*idemSlotLen, int64(len(idemMagic)+idemCap*idemSlotLen)); fi.Size() != want {
		t.Fatalf("idempotency ring is %d bytes after %d keyed evals, want %d (magic + one slot per key, at most %d slots)",
			fi.Size(), flood, want, idemCap)
	}
}

// assertRestoreSignals drives one session through evict → restore → evict
// with keyed evals on the way, then reads the signals back from
// /snapshot.json: the three phase histograms that decompose a restore
// (snapshot load, key expansion, epoch write), the evict timer beside them,
// and the idempotency counters — a replay across the evict, a key reused for
// another request, no replay mismatch — with the body journal's counters and
// its restore phase gone.
func assertRestoreSignals(t *testing.T, base, sid, ct string) {
	t.Helper()
	keyedEval(t, base, sid, "k0", ct)
	keyedEval(t, base, sid, "k1", ct)
	other := createSession(t, base, testSessionRequest()).ID         // -max-resident-sessions 1: evicts sid
	if _, replayed := keyedEval(t, base, sid, "k0", ct); !replayed { // restores sid, evicts other
		t.Fatal("a keyed eval did not replay across evict/restore")
	}
	reuse := evalOf(fast.NewProgram().In("x").AddConst("y", "x", 1).Return("y"), ct)
	if status, raw, _ := keyedPost(t, base+"/v1/sessions/"+sid+"/eval", "k1", reuse); status != http.StatusUnprocessableEntity {
		t.Fatalf("key reused for another request: status %d: %.200s, want 422", status, raw)
	}
	encryptValues(t, base, other, []complex128{1}) // restores other, evicts sid

	var snap struct {
		Counters   map[string]uint64 `json:"counters"`
		Histograms map[string]struct {
			Count uint64 `json:"count"`
			Sum   int64  `json:"sum"`
		} `json:"histograms"`
	}
	if status, raw := doJSON(t, http.MethodGet, base+"/snapshot.json", nil, nil, &snap); status != http.StatusOK {
		t.Fatalf("GET /snapshot.json: status %d: %s", status, raw)
	}
	for _, name := range []string{"fastd.restore.snapshot_load_ns", "fastd.restore.expand_ns", "fastd.restore.epoch_write_ns"} {
		if h := snap.Histograms[name]; h.Count != 2 || h.Sum <= 0 {
			t.Fatalf("%s = %+v after two restores, want count 2 and a positive sum", name, h)
		}
	}
	if h := snap.Histograms["fastd.evict_ns"]; h.Count != 3 || h.Sum <= 0 {
		t.Fatalf("fastd.evict_ns = %+v after three evicts, want count 3 and a positive sum", h)
	}
	for name, want := range map[string]uint64{"fastd.idem.replays": 1, "fastd.idem.conflicts": 1, "fastd.idem.replay_mismatch": 0} {
		if got, ok := snap.Counters[name]; !ok || got != want {
			t.Fatalf("%s = %d (exported: %v), want %d", name, got, ok, want)
		}
	}
	for _, name := range []string{"fastd.idem.compactions", "fastd.idem.torn_truncated", "fastd.idem.crc_mismatch"} {
		if _, ok := snap.Counters[name]; ok {
			t.Fatalf("%s is still exported: the body journal is gone", name)
		}
	}
	if _, ok := snap.Histograms["fastd.restore.journal_index_ns"]; ok {
		t.Fatal("fastd.restore.journal_index_ns is still exported: a restore no longer reads the journal")
	}
}

// assertDebugPlans: the executed plan's record carries the pinned request
// ID, closing the loop between the access log and the plan ring.
func assertDebugPlans(t *testing.T, base, reqID string) {
	t.Helper()
	resp, err := http.Get(base + "/debug/plans")
	if err != nil {
		t.Fatalf("GET /debug/plans: %v", err)
	}
	defer resp.Body.Close()
	var body struct {
		Count int `json:"count"`
		Plans []struct {
			Fingerprint string `json:"fingerprint"`
			RequestID   string `json:"request_id"`
		} `json:"plans"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("decode /debug/plans: %v", err)
	}
	for _, p := range body.Plans {
		if p.RequestID == reqID {
			if p.Fingerprint == "" {
				t.Fatalf("plan record for %s lacks a fingerprint: %+v", reqID, p)
			}
			return
		}
	}
	t.Fatalf("no plan record carries request ID %s (count=%d)", reqID, body.Count)
}

// assertAccessLogFile validates the file the -access-log flag produced: one
// JSON object per line with the access-log schema, including the eval line.
func assertAccessLogFile(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read access log: %v", err)
	}
	sc := bufio.NewScanner(bytes.NewReader(raw))
	var evalSeen bool
	n := 0
	for sc.Scan() {
		var rec map[string]any
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("access-log line is not JSON: %q: %v", sc.Text(), err)
		}
		if rec["msg"] != "request" {
			continue
		}
		n++
		for _, k := range []string{"time", "level", "id", "method", "path", "status", "outcome", "dur_ms", "bytes"} {
			if _, ok := rec[k]; !ok {
				t.Fatalf("access-log record missing %q: %v", k, rec)
			}
		}
		if p, _ := rec["path"].(string); strings.HasSuffix(p, "/eval") {
			evalSeen = evalSeen || rec["id"] == "obs-smoke-eval-1" // the trace-ring flood's evals follow it
			switch rec["outcome"] {
			case "ok", "idem_replay": // a replay is an execution: enriched like one
			case "idem_conflict": // refused before compiling
				if rec["status"] != float64(http.StatusUnprocessableEntity) {
					t.Fatalf("idem_conflict logged with status %v, want 422", rec["status"])
				}
				continue
			default:
				t.Fatalf("eval outcome = %v, want ok, idem_replay or idem_conflict", rec["outcome"])
			}
			for _, k := range []string{"session", "units", "fingerprint"} {
				if _, ok := rec[k]; !ok {
					t.Fatalf("eval record missing enrichment %q: %v", k, rec)
				}
			}
		}
	}
	if n < 4 { // session create, encrypt, eval, decrypt + debug probes
		t.Fatalf("access log has %d request records, want >= 4\n%s", n, raw)
	}
	if !evalSeen {
		t.Fatalf("no eval record with the pinned request ID in the access log:\n%.2000s", raw)
	}
	fmt.Fprintf(os.Stderr, "obs-smoke: %d access-log records validated\n", n)
}
