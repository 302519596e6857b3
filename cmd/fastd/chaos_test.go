package main

// The fastd chaos suite runs the serve loop in-process under every named
// fault scenario (run it with the race detector: `make chaos`). The central
// invariant is inherited from the root chaos suite and extended across the
// HTTP boundary: faults on the modeled key-transfer path change timing and
// recovery accounting, never computed values — so every 200 response must
// carry a ciphertext bit-identical to a fault-free reference evaluation, and
// every shed, canceled or refused request must carry a typed error, never a
// corrupt result. The circuit breaker must open under a fault storm and
// re-close once faults stop.

import (
	"math"
	"net/http"
	"sync"
	"testing"
	"time"

	fast "github.com/fastfhe/fast"
	"github.com/fastfhe/fast/internal/serve"
)

// chaosProgram is the canonical request program: eight key-switch-bearing ops
// across both backends plus a level-consuming multiply, so every fault
// scenario sees plenty of modeled key transfers per request.
func chaosProgram(cx, cy string) map[string]any {
	return evalOf(chaosOps(), cx, cy)
}

func chaosOps() *fast.Program {
	return fast.NewProgram().In("x", "y").
		Rotate("r1", "x", 1, hybrid).
		Rotate("r2", "r1", -1, klss).
		Rotate("r3", "r2", 4, hybrid).
		Conjugate("c", "r3", hybrid).
		Mul("m", "c", "y", hybrid).
		Rotate("r4", "m", 1, klss).
		Rotate("r5", "r4", -1, hybrid).
		AddConst("out", "r5", 0.25).
		Return("out")
}

// chaosReference mirrors chaosProgram on a local fault-free Context built
// from the same config and seed. Key generation and encryption are the only
// randomness consumers, so a context replicating the server session's call
// sequence produces bit-identical ciphertexts; the homomorphic ops themselves
// are deterministic. Rotations go through RotateHoisted because the daemon's
// planner routes every rotation through the hoisted path (singletons
// included) — plain Rotate uses a different kernel sequence and is NOT
// bit-identical to the hoisted form.
func chaosReference(t *testing.T, ref *fast.Context, x, y *fast.Ciphertext) *fast.Ciphertext {
	t.Helper()
	step := func(ct *fast.Ciphertext, err error) *fast.Ciphertext {
		t.Helper()
		if err != nil {
			t.Fatalf("reference evaluation: %v", err)
		}
		return ct
	}
	rot := func(ct *fast.Ciphertext, r int, opts ...fast.OpOption) *fast.Ciphertext {
		t.Helper()
		out, err := ref.RotateHoisted(ct, []int{r}, opts...)
		if err != nil {
			t.Fatalf("reference evaluation: %v", err)
		}
		return out[r]
	}
	r1 := rot(x, 1)
	r2 := rot(r1, -1, fast.WithMethod(fast.KLSS))
	r3 := rot(r2, 4)
	c := step(ref.Conjugate(r3))
	m := step(ref.Mul(c, y))
	r4 := rot(m, 1, fast.WithMethod(fast.KLSS))
	r5 := rot(r4, -1)
	return step(ref.AddConst(r5, 0.25))
}

func chaosInputs(slots int) ([]complex128, []complex128) {
	x := make([]complex128, slots)
	y := make([]complex128, slots)
	for i := range x {
		x[i] = complex(0.4*math.Cos(float64(3*i+1)), 0.3*math.Sin(float64(i)))
		y[i] = complex(0.25+0.001*float64(i%31), -0.15)
	}
	return x, y
}

func chaosBitsEqual(a, b []complex128) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(real(a[i])) != math.Float64bits(real(b[i])) ||
			math.Float64bits(imag(a[i])) != math.Float64bits(imag(b[i])) {
			return false
		}
	}
	return true
}

// TestFastdChaosScenariosBitExact serves one session per named fault scenario
// and asserts the degraded-but-correct invariant over HTTP: the evaluated
// ciphertext and its decryption are bit-identical to the fault-free local
// reference, while the fault machinery demonstrably ran (transfers counted).
func TestFastdChaosScenariosBitExact(t *testing.T) {
	for _, scenario := range []string{"none", "transfer", "spike", "corrupt", "pressure", "all"} {
		t.Run(scenario, func(t *testing.T) {
			d, ts := newTestDaemon(t, daemonConfig{Workers: 1, BreakerThreshold: 1 << 20})
			base := ts.URL

			req := testSessionRequest()
			req.FaultScenario = scenario
			sr := createSession(t, base, req)

			// Local fault-free replica: same config, same seed, same
			// randomness-consuming call order (keygen, Encrypt x, Encrypt y).
			refCfg := fast.ContextConfig{
				LogN: req.LogN, LogSlots: req.LogSlots, Levels: req.Levels,
				LogScale: req.LogScale, Rotations: req.Rotations,
				Conjugation: req.Conjugation, EnableKLSS: req.EnableKLSS,
				Seed: req.Seed, Parallelism: req.Parallelism,
			}
			ref, err := fast.NewContext(refCfg)
			if err != nil {
				t.Fatalf("reference context: %v", err)
			}

			xs, ys := chaosInputs(sr.Slots)
			cx := encryptValues(t, base, sr.ID, xs)
			cy := encryptValues(t, base, sr.ID, ys)
			rx, err := ref.Encrypt(xs)
			if err != nil {
				t.Fatal(err)
			}
			ry, err := ref.Encrypt(ys)
			if err != nil {
				t.Fatal(err)
			}

			// The served encryption must already match the replica bit-exactly.
			refCx, err := encodeCiphertext(rx)
			if err != nil {
				t.Fatal(err)
			}
			if cx.Ciphertext != refCx.Ciphertext {
				t.Fatalf("scenario %s: served encryption differs from replica", scenario)
			}

			var cr ciphertextResponse
			status, raw := doJSON(t, http.MethodPost, base+"/v1/sessions/"+sr.ID+"/eval", nil,
				chaosProgram(cx.Ciphertext, cy.Ciphertext), &cr)
			if status != http.StatusOK {
				t.Fatalf("scenario %s: eval status %d: %s", scenario, status, raw)
			}

			want := chaosReference(t, ref, rx, ry)
			refOut, err := encodeCiphertext(want)
			if err != nil {
				t.Fatal(err)
			}
			if cr.Ciphertext != refOut.Ciphertext {
				t.Fatalf("scenario %s: served ciphertext is not bit-identical to the fault-free reference", scenario)
			}
			got := decryptValues(t, base, sr.ID, cr.Ciphertext)
			if !chaosBitsEqual(got, ref.Decrypt(want)) {
				t.Fatalf("scenario %s: served decryption is not bit-exact", scenario)
			}

			_, sess, err := d.resolve(sr.ID)
			if err != nil {
				t.Fatal("session vanished:", err)
			}
			st := sess.ctx.FaultStats()
			if scenario == "none" {
				if sess.ctx.FaultPlanActive() || st != (fast.FaultStats{}) {
					t.Fatalf("scenario none: unexpected fault activity %+v", st)
				}
			} else if st.Transfers == 0 {
				t.Fatalf("scenario %s: fault plan attached but no transfers modeled", scenario)
			}
		})
	}
}

// TestFastdChaosOverloadNoCorruption floods a fault-injected session with
// concurrent requests, some carrying unmeetable deadlines, against a tiny
// worker pool. Every accepted (200) response must be bit-identical to the
// reference; every rejection must be one of the typed degradation statuses.
// No request may observe a corrupt result.
func TestFastdChaosOverloadNoCorruption(t *testing.T) {
	_, ts := newTestDaemon(t, daemonConfig{Workers: 1, QueueDepth: 2, BreakerThreshold: 1 << 20})
	base := ts.URL

	req := testSessionRequest()
	req.FaultScenario = "all"
	sr := createSession(t, base, req)

	refCfg := fast.ContextConfig{
		LogN: req.LogN, Levels: req.Levels, LogScale: req.LogScale,
		Rotations: req.Rotations, Conjugation: req.Conjugation,
		EnableKLSS: req.EnableKLSS, Seed: req.Seed,
	}
	ref, err := fast.NewContext(refCfg)
	if err != nil {
		t.Fatal(err)
	}
	xs, ys := chaosInputs(sr.Slots)
	cx := encryptValues(t, base, sr.ID, xs)
	cy := encryptValues(t, base, sr.ID, ys)
	rx, _ := ref.Encrypt(xs)
	ry, _ := ref.Encrypt(ys)
	refOut, err := encodeCiphertext(chaosReference(t, ref, rx, ry))
	if err != nil {
		t.Fatal(err)
	}

	const clients = 24
	type result struct {
		status int
		body   ciphertextResponse
		raw    []byte
	}
	results := make([]result, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			hdr := map[string]string{}
			if i%3 == 0 {
				hdr["X-Deadline-Ms"] = "1" // provably unmeetable under load
			}
			status, raw := doJSON(t, http.MethodPost, base+"/v1/sessions/"+sr.ID+"/eval", hdr,
				chaosProgram(cx.Ciphertext, cy.Ciphertext), &results[i].body)
			results[i].status = status
			results[i].raw = raw
		}(i)
	}
	wg.Wait()

	accepted := 0
	for i, r := range results {
		switch r.status {
		case http.StatusOK:
			accepted++
			if r.body.Ciphertext != refOut.Ciphertext {
				t.Fatalf("client %d: accepted result is not bit-identical to reference", i)
			}
		case http.StatusTooManyRequests, http.StatusServiceUnavailable,
			http.StatusGatewayTimeout, http.StatusRequestTimeout:
			// Typed degradation — acceptable; body must carry an error.
			if len(r.raw) == 0 {
				t.Errorf("client %d: rejection %d with empty body", i, r.status)
			}
		default:
			t.Errorf("client %d: unexpected status %d: %s", i, r.status, r.raw)
		}
	}
	if accepted == 0 {
		t.Fatal("overload run accepted zero requests")
	}
	t.Logf("overload: %d/%d accepted, all bit-exact", accepted, clients)
}

// TestFastdFaultBreakerResilience drives a transfer-fault storm until the
// circuit breaker opens (readiness drops, requests are refused fast with
// 503), then stops the faults and asserts the breaker re-closes via the
// half-open probe and service resumes.
func TestFastdFaultBreakerResilience(t *testing.T) {
	d, ts := newTestDaemon(t, daemonConfig{
		Workers:          1,
		BreakerThreshold: 3,
		BreakerCooldown:  50 * time.Millisecond,
	})
	base := ts.URL

	// Create both sessions up front: once the breaker is open, keygen
	// requests are refused too (they ride the same admission path).
	faulty := testSessionRequest()
	faulty.FaultScenario = "transfer"
	fsr := createSession(t, base, faulty)
	csr := createSession(t, base, testSessionRequest())

	fxs, fys := chaosInputs(fsr.Slots)
	fx := encryptValues(t, base, fsr.ID, fxs)
	fy := encryptValues(t, base, fsr.ID, fys)
	cxs, cys := chaosInputs(csr.Slots)
	cx := encryptValues(t, base, csr.ID, cxs)
	cy := encryptValues(t, base, csr.ID, cys)

	// Storm: each request carries ~8 key-switches at 25% transfer-failure
	// probability, so fault-recovery deltas (breaker failures) dominate.
	opened := false
	for i := 0; i < 200 && !opened; i++ {
		status, raw := doJSON(t, http.MethodPost, base+"/v1/sessions/"+fsr.ID+"/eval", nil,
			chaosProgram(fx.Ciphertext, fy.Ciphertext), nil)
		switch status {
		case http.StatusOK:
			// fault-free request (fault injection is probabilistic) — fine
		case http.StatusServiceUnavailable:
			opened = true
		default:
			t.Fatalf("storm request %d: status %d: %s", i, status, raw)
		}
		if d.shards[0].breaker.State() == serve.BreakerOpen {
			opened = true
		}
	}
	if !opened {
		t.Fatal("breaker never opened under transfer-fault storm")
	}

	// Open breaker: readiness drops, clean traffic is refused fast.
	status, raw := doJSON(t, http.MethodGet, base+"/readyz", nil, nil, nil)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("readyz with open breaker: status %d: %s", status, raw)
	}

	// Faults stop (clean session), cooldown elapses: the half-open probe
	// succeeds and the breaker re-closes. Allow a few probe attempts in case
	// a probe lands while the breaker is still open.
	deadline := time.Now().Add(5 * time.Second)
	recovered := false
	for time.Now().Before(deadline) && !recovered {
		time.Sleep(60 * time.Millisecond) // > cooldown
		status, _ := doJSON(t, http.MethodPost, base+"/v1/sessions/"+csr.ID+"/eval", nil,
			chaosProgram(cx.Ciphertext, cy.Ciphertext), nil)
		if status == http.StatusOK {
			recovered = true
		}
	}
	if !recovered {
		t.Fatal("service did not recover after faults stopped")
	}
	var ready struct {
		Breaker string `json:"breaker"`
	}
	status, raw = doJSON(t, http.MethodGet, base+"/readyz", nil, nil, &ready)
	if status != http.StatusOK || ready.Breaker != "closed" {
		t.Fatalf("breaker did not re-close: status %d, state %q (%s)", status, ready.Breaker, raw)
	}
}
