package main

// Wire-level tests for the eval program format: the v2 fast.Program object
// with an explicit version field, and nothing else. Validation failures must
// map to distinct 400 messages so clients can tell a duplicate write from a
// shadowed input from dead code without parsing Go error chains.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"

	fast "github.com/fastfhe/fast"
)

// TestEvalValidationMessages drives the satellite-1 validation classes over
// HTTP and asserts each yields a 400 with its own distinguishing message.
func TestEvalValidationMessages(t *testing.T) {
	_, ts := newTestDaemon(t, daemonConfig{Workers: 1})
	base := ts.URL
	sr := createSession(t, base, testSessionRequest())
	slots := sr.Slots
	vals := make([]complex128, slots)
	for i := range vals {
		vals[i] = complex(0.1, 0)
	}
	cx := encryptValues(t, base, sr.ID, vals).Ciphertext
	cy := encryptValues(t, base, sr.ID, vals).Ciphertext

	cases := []struct {
		name    string
		body    map[string]any
		message string // must appear in the 400 error body
	}{
		{
			name: "duplicate register write",
			body: evalOf(fast.NewProgram().In("x").
				AddConst("t", "x", 1).
				AddConst("t", "x", 2).
				Add("out", "t", "t").Return("out"), cx),
			message: "already written (duplicate write)",
		},
		{
			name: "write shadows an input",
			body: evalOf(fast.NewProgram().In("x", "y").
				AddConst("y", "x", 1).
				Add("out", "y", "x").Return("out"), cx, cy),
			message: "shadows a program input",
		},
		{
			name:    "unused input",
			body:    evalOf(fast.NewProgram().In("x", "y").AddConst("out", "x", 1).Return("out"), cx, cy),
			message: "is never used",
		},
		{
			name:    "output never written",
			body:    evalOf(fast.NewProgram().In("x").AddConst("t", "x", 1).Return("out"), cx),
			message: "never written",
		},
		{
			name:    "undefined register",
			body:    evalOf(fast.NewProgram().In("x").Add("out", "x", "ghost").Return("out"), cx),
			message: "undefined register",
		},
		{
			name:    "unknown op",
			body:    evalOf(fast.NewProgram().In("x").Append(fast.ProgramOp{Op: "teleport", A: "x", Out: "out"}).Return("out"), cx),
			message: "unknown op",
		},
		{
			name: "missing ciphertext for declared input",
			body: map[string]any{
				"inputs": map[string]string{"x": cx},
				"program": json.RawMessage(`{"version":2,"inputs":["x","y"],` +
					`"ops":[{"op":"add","a":"x","b":"y","out":"out"}],"output":"out"}`),
			},
			message: "missing ciphertext for input",
		},
		{
			name: "undeclared ciphertext",
			body: map[string]any{
				"inputs": map[string]string{"x": cx, "stray": cy},
				"program": json.RawMessage(`{"version":2,"inputs":["x"],` +
					`"ops":[{"op":"addconst","a":"x","value":1,"out":"out"}],"output":"out"}`),
			},
			message: "does not match a declared input",
		},
		{
			name: "unsupported program version",
			body: map[string]any{
				"inputs": map[string]string{"x": cx},
				"program": json.RawMessage(`{"version":7,"inputs":["x"],` +
					`"ops":[{"op":"addconst","a":"x","value":1,"out":"out"}],"output":"out"}`),
			},
			message: "version 7 unsupported",
		},
		{
			// The array that was program format v1: the answer names the
			// format to send instead.
			name: "v1 array program",
			body: map[string]any{
				"inputs":  map[string]string{"x": cx},
				"program": json.RawMessage(`[{"op":"addconst","a":"x","value":1,"out":"out"}]`),
				"output":  "out",
			},
			message: "must be a version 2 object",
		},
		{
			name: "level exhaustion caught at plan time",
			// Four rescaling multiplies on a 3-level chain: the fourth would
			// rescale below the bottom, rejected before admission.
			body: evalOf(fast.NewProgram().In("x").
				Mul("m1", "x", "x", hybrid).
				Mul("m2", "m1", "m1", hybrid).
				Mul("m3", "m2", "m2", hybrid).
				Mul("out", "m3", "m3", hybrid).Return("out"), cx),
			message: "rescale below the chain bottom",
		},
	}

	seen := make(map[string]bool)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, raw := doJSON(t, http.MethodPost, base+"/v1/sessions/"+sr.ID+"/eval", nil, tc.body, nil)
			if status != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400 (%s)", status, raw)
			}
			var errResp struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(raw, &errResp); err != nil {
				t.Fatalf("decode error body %q: %v", raw, err)
			}
			if !strings.Contains(errResp.Error, tc.message) {
				t.Fatalf("error %q does not contain %q", errResp.Error, tc.message)
			}
			if seen[errResp.Error] {
				t.Fatalf("error message %q is not distinct across validation classes", errResp.Error)
			}
			seen[errResp.Error] = true
		})
	}
}

// TestEvalV2ProgramEndToEnd serves a v2 object program (explicit version
// field, unpinned methods left to the planner) and checks the decrypted
// result numerically; the bit-exactness of the planner path is covered by
// the chaos suite.
func TestEvalV2ProgramEndToEnd(t *testing.T) {
	_, ts := newTestDaemon(t, daemonConfig{Workers: 2})
	base := ts.URL
	sr := createSession(t, base, testSessionRequest())

	xs := make([]complex128, sr.Slots)
	for i := range xs {
		xs[i] = complex(0.05*float64(i%7), 0.01)
	}
	cx := encryptValues(t, base, sr.ID, xs)

	prog := fast.NewProgram().In("x").
		Rotate("r1", "x", 1).
		Rotate("r2", "x", 4).
		Add("s", "r1", "r2").
		MulConst("out", "s", 0.5).
		Return("out")
	if err := prog.Validate(); err != nil {
		t.Fatalf("program: %v", err)
	}
	raw, err := json.Marshal(prog)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"version":2`) {
		t.Fatalf("marshaled program lacks version field: %s", raw)
	}

	var cr ciphertextResponse
	status, body := doJSON(t, http.MethodPost, base+"/v1/sessions/"+sr.ID+"/eval", nil,
		map[string]any{"inputs": map[string]string{"x": cx.Ciphertext}, "program": json.RawMessage(raw)}, &cr)
	if status != http.StatusOK {
		t.Fatalf("v2 eval status %d: %s", status, body)
	}

	got := decryptValues(t, base, sr.ID, cr.Ciphertext)
	for i := range xs {
		want := 0.5 * (xs[(i+1)%len(xs)] + xs[(i+4)%len(xs)])
		if math.Abs(real(got[i])-real(want)) > 1e-3 || math.Abs(imag(got[i])-imag(want)) > 1e-3 {
			t.Fatalf("slot %d: got %v, want %v", i, got[i], want)
		}
	}
}

// TestEvalSequentialModeMatchesBatched is what keeps the one served eval path
// honest: the planned execution (Context.Execute) behind POST .../eval must
// return, byte for byte, what Context.ExecuteSequential — the library's
// straight-line reference — computes on an in-process Context built from the
// same session request and seed. Keygen and the two encrypts are the only
// randomness consumers, so replaying that call sequence reproduces the served
// inputs.
func TestEvalSequentialModeMatchesBatched(t *testing.T) {
	_, ts := newTestDaemon(t, daemonConfig{Workers: 1})
	base := ts.URL
	req := testSessionRequest()
	sr := createSession(t, base, req)
	xs, ys := chaosInputs(sr.Slots)
	cx := encryptValues(t, base, sr.ID, xs)
	cy := encryptValues(t, base, sr.ID, ys)
	var served ciphertextResponse
	status, raw := doJSON(t, http.MethodPost, base+"/v1/sessions/"+sr.ID+"/eval", nil,
		chaosProgram(cx.Ciphertext, cy.Ciphertext), &served)
	if status != http.StatusOK {
		t.Fatalf("eval: status %d: %s", status, raw)
	}

	ref, err := fast.NewContext(fast.ContextConfig{
		LogN: req.LogN, Levels: req.Levels, LogScale: req.LogScale, Rotations: req.Rotations,
		Conjugation: req.Conjugation, EnableKLSS: req.EnableKLSS, Seed: req.Seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	rx, err := ref.Encrypt(xs)
	if err != nil {
		t.Fatal(err)
	}
	ry, err := ref.Encrypt(ys)
	if err != nil {
		t.Fatal(err)
	}
	if enc, _ := encodeCiphertext(rx); enc.Ciphertext != cx.Ciphertext {
		t.Fatal("the in-process context does not reproduce the served encryption: the comparison below would be vacuous")
	}
	plan, err := ref.Plan(chaosOps(), map[string]int{"x": rx.Level(), "y": ry.Level()})
	if err != nil {
		t.Fatal(err)
	}
	out, err := ref.ExecuteSequential(context.Background(), plan, map[string]*fast.Ciphertext{"x": rx, "y": ry})
	if err != nil {
		t.Fatal(err)
	}
	want, err := encodeCiphertext(out)
	if err != nil {
		t.Fatal(err)
	}
	if served.Ciphertext != want.Ciphertext {
		t.Fatal("the served eval is not byte-identical to ExecuteSequential on the same session and seed")
	}
}

// TestServedEvalsRunAlone: concurrent evals of one session, queued behind one
// worker, each execute alone. fastd shares no work across requests, so each
// eval leaves exactly one plan record, joined to it by its request ID, and no
// serve_batch_* series is exported.
func TestServedEvalsRunAlone(t *testing.T) {
	const evals = 8
	_, ts := newTestDaemon(t, daemonConfig{Workers: 1, QueueDepth: evals})
	base := ts.URL
	sr := createSession(t, base, testSessionRequest())
	prog := fast.NewProgram().In("x").
		Rotate("a", "x", 1, hybrid).Rotate("b", "x", 4, hybrid).
		Add("out", "a", "b").
		Return("out")
	bodies := make([][]byte, evals)
	for i := range bodies {
		vals := make([]complex128, sr.Slots)
		vals[0] = complex(float64(i+1), 0)
		bodies[i] = mustJSON(t, evalOf(prog, encryptValues(t, base, sr.ID, vals).Ciphertext))
	}
	var wg sync.WaitGroup
	for i := range bodies {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req, err := http.NewRequest(http.MethodPost, base+"/v1/sessions/"+sr.ID+"/eval", bytes.NewReader(bodies[i]))
			if err != nil {
				t.Error(err)
				return
			}
			req.Header.Set("X-Request-Id", fmt.Sprintf("eval-%d", i))
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Errorf("eval %d: %v", i, err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("eval %d: status %d", i, resp.StatusCode)
			}
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	var plans struct {
		Plans []fast.PlanRecord `json:"plans"`
	}
	doJSON(t, http.MethodGet, base+"/debug/plans", nil, nil, &plans)
	if len(plans.Plans) != evals {
		t.Fatalf("%d plan records, want %d", len(plans.Plans), evals)
	}
	seen := map[string]bool{}
	for _, rec := range plans.Plans {
		if seen[rec.RequestID] || !strings.HasPrefix(rec.RequestID, "eval-") {
			t.Errorf("plan record %+v: want a request ID of its own, one of the evals'", rec)
		}
		seen[rec.RequestID] = true
	}
	if _, metrics := doJSON(t, http.MethodGet, base+"/metrics", nil, nil, nil); strings.Contains(string(metrics), "serve_batch_") {
		t.Error("/metrics exports serve_batch_* series")
	}
}
