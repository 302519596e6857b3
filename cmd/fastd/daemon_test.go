package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	fast "github.com/fastfhe/fast"
	"github.com/fastfhe/fast/internal/ring/kerneltest"
)

// testConfig mirrors the root chaos suite's parameter point: small enough to
// keygen in tens of milliseconds, rich enough (rotations, conjugation, KLSS)
// to exercise every program op.
func testSessionRequest() sessionRequest {
	return sessionRequest{
		LogN:        9,
		Levels:      3,
		LogScale:    36,
		Rotations:   []int{1, -1, 4},
		Conjugation: true,
		EnableKLSS:  true,
		Seed:        7,
	}
}

func newTestDaemon(t *testing.T, cfg daemonConfig) (*daemon, *httptest.Server) {
	t.Helper()
	if cfg.Observer == nil {
		cfg.Observer = fast.NewObserver()
	}
	d, err := newDaemon(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(d.handler())
	t.Cleanup(ts.Close)
	return d, ts
}

// doJSON posts body as JSON (or GETs when body is nil) and decodes the reply
// into out (when non-nil). It returns the HTTP status and raw body.
func doJSON(t *testing.T, method, url string, hdr map[string]string, body, out any) (int, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatalf("marshal request: %v", err)
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatalf("new request: %v", err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	if out != nil && resp.StatusCode < 300 {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("decode response %q: %v", raw, err)
		}
	}
	return resp.StatusCode, raw
}

// evalOf builds an eval request body: the v2 program p with cts bound to its
// declared inputs, in order.
func evalOf(p *fast.Program, cts ...string) map[string]any {
	inputs := make(map[string]string, len(cts))
	for i, name := range p.Inputs() {
		inputs[name] = cts[i]
	}
	return map[string]any{"inputs": inputs, "program": p}
}

// The tests pin every key-switching op's method: what a request computes is
// then the program's to say, not the planner's.
var hybrid, klss = fast.WithMethod(fast.Hybrid), fast.WithMethod(fast.KLSS)

func createSession(t *testing.T, base string, req sessionRequest) sessionResponse {
	t.Helper()
	var sr sessionResponse
	status, raw := doJSON(t, http.MethodPost, base+"/v1/sessions", nil, req, &sr)
	if status != http.StatusOK {
		t.Fatalf("create session: status %d: %s", status, raw)
	}
	if sr.ID == "" || sr.Slots <= 0 {
		t.Fatalf("create session: bad response %+v", sr)
	}
	return sr
}

func encryptValues(t *testing.T, base, id string, vals []complex128) ciphertextResponse {
	t.Helper()
	var cr ciphertextResponse
	status, raw := doJSON(t, http.MethodPost, base+"/v1/sessions/"+id+"/encrypt", nil,
		encryptRequest{Values: fromComplex(vals)}, &cr)
	if status != http.StatusOK {
		t.Fatalf("encrypt: status %d: %s", status, raw)
	}
	return cr
}

func decryptValues(t *testing.T, base, id, ct string) []complex128 {
	t.Helper()
	var dr decryptResponse
	status, raw := doJSON(t, http.MethodPost, base+"/v1/sessions/"+id+"/decrypt", nil,
		decryptRequest{Ciphertext: ct}, &dr)
	if status != http.StatusOK {
		t.Fatalf("decrypt: status %d: %s", status, raw)
	}
	return toComplex(dr.Values)
}

// TestDaemonEndToEnd drives the full client lifecycle over HTTP: session
// create, encrypt, a multi-op program (mul, rotate, conjugate, addconst),
// decrypt, delete — and checks the decrypted result against the plaintext
// computation. It runs on every kernel path, and a fresh daemon with the
// same seed must send the same eval reply on each.
func TestDaemonEndToEnd(t *testing.T) {
	var firstReply []byte
	kerneltest.EachPath(t, func(t *testing.T) {
		firstReply = daemonEndToEnd(t, firstReply)
	})
}

// daemonEndToEnd is one TestDaemonEndToEnd run; it returns the eval's reply,
// which must equal want unless want is nil.
func daemonEndToEnd(t *testing.T, want []byte) []byte {
	_, ts := newTestDaemon(t, daemonConfig{Workers: 2})
	base := ts.URL

	sr := createSession(t, base, testSessionRequest())
	n := sr.Slots

	x := make([]complex128, n)
	y := make([]complex128, n)
	for i := 0; i < n; i++ {
		x[i] = complex(0.5*math.Cos(float64(i)), 0.25*math.Sin(float64(i)))
		y[i] = complex(0.3+0.001*float64(i%17), -0.2)
	}
	cx := encryptValues(t, base, sr.ID, x)
	cy := encryptValues(t, base, sr.ID, y)

	// t = x*y; r = rotate(t, 1); c = conj(r) via KLSS; out = c + 0.125
	prog := evalOf(fast.NewProgram().In("x", "y").
		Mul("t", "x", "y", hybrid).
		Rotate("r", "t", 1, hybrid).
		Conjugate("c", "r", klss).
		AddConst("out", "c", 0.125).
		Return("out"), cx.Ciphertext, cy.Ciphertext)
	var cr ciphertextResponse
	status, raw := doJSON(t, http.MethodPost, base+"/v1/sessions/"+sr.ID+"/eval", nil, prog, &cr)
	if status != http.StatusOK {
		t.Fatalf("eval: status %d: %s", status, raw)
	}
	if want != nil && !bytes.Equal(raw, want) {
		t.Fatalf("eval reply differs from the first kernel path's: tail %q, want %q", tail(raw), tail(want))
	}
	got := decryptValues(t, base, sr.ID, cr.Ciphertext)
	if len(got) != n {
		t.Fatalf("decrypt returned %d slots, want %d", len(got), n)
	}
	conj := func(v complex128) complex128 { return complex(real(v), -imag(v)) }
	for i := 0; i < n; i++ {
		want := conj(x[(i+1)%n]*y[(i+1)%n]) + 0.125
		if d := got[i] - want; math.Hypot(real(d), imag(d)) > 1e-3 {
			t.Fatalf("slot %d: got %v, want %v", i, got[i], want)
		}
	}

	// Delete drops the keyspace; subsequent use is a 404.
	status, _ = doJSON(t, http.MethodDelete, base+"/v1/sessions/"+sr.ID, nil, nil, nil)
	if status != http.StatusNoContent {
		t.Fatalf("delete session: status %d", status)
	}
	status, _ = doJSON(t, http.MethodPost, base+"/v1/sessions/"+sr.ID+"/encrypt", nil,
		encryptRequest{Values: fromComplex(x[:1])}, nil)
	if status != http.StatusNotFound {
		t.Fatalf("encrypt after delete: status %d, want 404", status)
	}
	return raw
}

// TestDaemonValidation exercises the 400/404 surface: malformed JSON, unknown
// sessions, undefined registers, unknown ops and methods and bad ciphertexts
// must all be rejected before the worker pool.
func TestDaemonValidation(t *testing.T) {
	_, ts := newTestDaemon(t, daemonConfig{Workers: 1})
	base := ts.URL
	sr := createSession(t, base, testSessionRequest())
	ct := encryptValues(t, base, sr.ID, make([]complex128, sr.Slots))

	cases := []struct {
		name   string
		method string
		path   string
		body   any
		want   int
	}{
		{"bad session json", "POST", "/v1/sessions", "not an object", http.StatusBadRequest},
		{"unknown session eval", "POST", "/v1/sessions/nope/eval", evalOf(fast.NewProgram()), http.StatusNotFound},
		{"unknown session delete", "DELETE", "/v1/sessions/nope", nil, http.StatusNotFound},
		{"empty program", "POST", "/v1/sessions/" + sr.ID + "/eval",
			evalOf(fast.NewProgram().In("x").Return("x"), ct.Ciphertext), http.StatusBadRequest},
		{"missing output", "POST", "/v1/sessions/" + sr.ID + "/eval",
			evalOf(fast.NewProgram().In("x").AddConst("y", "x", 1), ct.Ciphertext), http.StatusBadRequest},
		{"undefined register", "POST", "/v1/sessions/" + sr.ID + "/eval",
			evalOf(fast.NewProgram().In("x").Add("y", "x", "ghost").Return("y"), ct.Ciphertext), http.StatusBadRequest},
		{"unknown op", "POST", "/v1/sessions/" + sr.ID + "/eval",
			evalOf(fast.NewProgram().In("x").Append(fast.ProgramOp{Op: "teleport", A: "x", Out: "y"}).Return("y"), ct.Ciphertext), http.StatusBadRequest},
		{"unknown method", "POST", "/v1/sessions/" + sr.ID + "/eval",
			map[string]any{"inputs": map[string]string{"x": ct.Ciphertext}, "program": json.RawMessage(
				`{"version":2,"inputs":["x"],"ops":[{"op":"rotate","a":"x","r":1,"out":"y","method":"quantum"}],"output":"y"}`)},
			http.StatusBadRequest},
		{"bad input ciphertext", "POST", "/v1/sessions/" + sr.ID + "/eval",
			evalOf(fast.NewProgram().In("x").AddConst("y", "x", 1).Return("y"), "!!!not base64!!!"), http.StatusBadRequest},
		{"bad decrypt ciphertext", "POST", "/v1/sessions/" + sr.ID + "/decrypt",
			decryptRequest{Ciphertext: "AAAA"}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		status, raw := doJSON(t, tc.method, base+tc.path, nil, tc.body, nil)
		if status != tc.want {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, status, tc.want, raw)
		}
	}
}

// TestDaemonSessionLimit: the registry bounds live keyspaces; the excess
// create is refused with 429, and deleting a session frees the slot.
func TestDaemonSessionLimit(t *testing.T) {
	_, ts := newTestDaemon(t, daemonConfig{Workers: 1, MaxSessions: 1})
	base := ts.URL
	sr := createSession(t, base, testSessionRequest())

	status, _ := doJSON(t, http.MethodPost, base+"/v1/sessions", nil, testSessionRequest(), nil)
	if status != http.StatusTooManyRequests {
		t.Fatalf("second create: status %d, want 429", status)
	}
	if status, _ := doJSON(t, http.MethodDelete, base+"/v1/sessions/"+sr.ID, nil, nil, nil); status != http.StatusNoContent {
		t.Fatalf("delete: status %d", status)
	}
	createSession(t, base, testSessionRequest()) // slot freed
}

// TestDaemonHealthEndpoints: healthz is always live, readyz reports the
// degradation state, and the observability surface exposes the admission
// instruments in Prometheus format.
func TestDaemonHealthEndpoints(t *testing.T) {
	d, ts := newTestDaemon(t, daemonConfig{Workers: 1})
	base := ts.URL

	status, raw := doJSON(t, http.MethodGet, base+"/healthz", nil, nil, nil)
	if status != http.StatusOK || !strings.Contains(string(raw), "ok") {
		t.Fatalf("healthz: status %d body %q", status, raw)
	}

	var ready struct {
		Ready    bool `json:"ready"`
		Draining bool `json:"draining"`
	}
	status, _ = doJSON(t, http.MethodGet, base+"/readyz", nil, nil, &ready)
	if status != http.StatusOK || !ready.Ready {
		t.Fatalf("readyz: status %d, %+v", status, ready)
	}

	createSession(t, base, testSessionRequest())
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, m := range []string{"serve_admitted", "serve_completed", "fastd_requests", "fastd_sessions"} {
		if !strings.Contains(string(body), m) {
			t.Errorf("/metrics missing %s:\n%.400s", m, body)
		}
	}

	// Drain: readyz flips to 503 and new work is refused as draining.
	drainCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := d.drain(drainCtx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	status, raw = doJSON(t, http.MethodGet, base+"/readyz", nil, nil, nil)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining: status %d body %s", status, raw)
	}
	status, raw = doJSON(t, http.MethodPost, base+"/v1/sessions", nil, testSessionRequest(), nil)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("create while draining: status %d body %s", status, raw)
	}
}

// TestDaemonDeadlineHeader: a provably unmeetable X-Deadline-Ms is shed on
// arrival (504) or, if the estimator has not yet calibrated, canceled
// mid-flight (408). Either way the request never returns a 200 with a result
// computed past its deadline.
func TestDaemonDeadlineHeader(t *testing.T) {
	_, ts := newTestDaemon(t, daemonConfig{Workers: 1})
	base := ts.URL
	sr := createSession(t, base, testSessionRequest()) // also calibrates the estimator
	ct := encryptValues(t, base, sr.ID, make([]complex128, sr.Slots))

	prog := evalOf(fast.NewProgram().In("x").
		Mul("t", "x", "x", hybrid).
		Rotate("y", "t", 1, hybrid).
		Return("y"), ct.Ciphertext)
	start := time.Now()
	status, raw := doJSON(t, http.MethodPost, base+"/v1/sessions/"+sr.ID+"/eval",
		map[string]string{"X-Deadline-Ms": "1"}, prog, nil)
	elapsed := time.Since(start)
	if status != http.StatusGatewayTimeout && status != http.StatusRequestTimeout {
		t.Fatalf("1ms-deadline eval: status %d, want 504 or 408 (%s)", status, raw)
	}
	if status == http.StatusGatewayTimeout && elapsed > 100*time.Millisecond {
		t.Errorf("shed response took %v, want fast rejection", elapsed)
	}
	var errBody struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(raw, &errBody); err != nil || errBody.Error == "" {
		t.Fatalf("rejection body is not a typed error: %q", raw)
	}

	// A deadline too far out to be a time.Duration is ignored, as a
	// non-numeric or non-positive one is: the eval runs.
	for _, h := range []string{"9223372036854775807", "9300000000000"} {
		if status, raw := doJSON(t, http.MethodPost, base+"/v1/sessions/"+sr.ID+"/eval",
			map[string]string{"X-Deadline-Ms": h}, prog, nil); status != http.StatusOK {
			t.Errorf("X-Deadline-Ms %s: status %d, want 200 (%s)", h, status, raw)
		}
	}
}

// TestRunServeDrain exercises the real main-loop wiring through the test
// hooks: run() binds a port, serves a session create + healthz, then drains
// cleanly on the simulated signal.
func TestRunServeDrain(t *testing.T) {
	oldStarted, oldWait := httpStarted, httpWait
	defer func() { httpStarted, httpWait = oldStarted, oldWait }()

	var addr net.Addr
	httpStarted = func(a net.Addr) { addr = a }
	httpWait = func() {
		if addr == nil {
			t.Fatal("httpStarted not called before httpWait")
		}
		base := "http://" + addr.String()
		resp, err := http.Get(base + "/healthz")
		if err != nil {
			t.Fatalf("GET /healthz: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("healthz: status %d", resp.StatusCode)
		}
		createSession(t, base, testSessionRequest())
	}

	var out bytes.Buffer
	if err := run([]string{"-addr", "127.0.0.1:0", "-workers", "1", "-drain-timeout", "10s"}, &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	for _, want := range []string{"fastd serving on", "fastd draining", "fastd stopped"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

// TestDaemonMissingFlagError keeps flag parsing honest.
func TestDaemonMissingFlagError(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-no-such-flag"}, &out); err == nil {
		t.Fatal("run with unknown flag: want error")
	}
}
