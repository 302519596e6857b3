package main

// The fastd chaos suite runs the serve loop in-process (run it with the race
// detector: `make chaos`). Every 200 response must carry a ciphertext
// bit-identical to a reference evaluation made on a local Context of the same
// config and seed, and every shed, canceled or refused request must carry a
// typed error, never a corrupt result.

import (
	"math"
	"net/http"
	"sync"
	"testing"

	fast "github.com/fastfhe/fast"
)

// chaosProgram is the canonical request program: eight key-switch-bearing ops
// across both backends plus a level-consuming multiply.
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

// chaosReference mirrors chaosProgram on a local Context built from the same
// config and seed. Key generation and encryption are the only
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

// chaosReplica builds the local twin of a served session — same config, same
// seed, same randomness-consuming call order (keygen, Encrypt x, Encrypt y) —
// and returns it with the wire forms of its encryption of xs and of the
// reference chaosProgram output.
func chaosReplica(t *testing.T, req sessionRequest, xs, ys []complex128) (ref *fast.Context, refCx, refOut string) {
	t.Helper()
	ref, err := fast.NewContext(fast.ContextConfig{
		LogN: req.LogN, LogSlots: req.LogSlots, Levels: req.Levels,
		LogScale: req.LogScale, Rotations: req.Rotations,
		Conjugation: req.Conjugation, EnableKLSS: req.EnableKLSS,
		Seed: req.Seed, Parallelism: req.Parallelism,
	})
	if err != nil {
		t.Fatalf("reference context: %v", err)
	}
	rx, err := ref.Encrypt(xs)
	if err != nil {
		t.Fatal(err)
	}
	ry, err := ref.Encrypt(ys)
	if err != nil {
		t.Fatal(err)
	}
	cx, err := encodeCiphertext(rx)
	if err != nil {
		t.Fatal(err)
	}
	out, err := encodeCiphertext(chaosReference(t, ref, rx, ry))
	if err != nil {
		t.Fatal(err)
	}
	return ref, cx.Ciphertext, out.Ciphertext
}

// TestNoisyTenantCannotRefuseNeighbours: nothing one tenant puts in its own
// session-create may get a neighbour on the same shard refused. The first
// session asks for "fault_scenario":"transfer" — a legacy key that once ran a
// modelled transfer-fault storm beside the session until the shard 503'd
// every one of its tenants, and /readyz with them; the key is ignored now.
// Both sessions' evals must return 200 with the reference bytes, and /readyz
// must stay 200.
func TestNoisyTenantCannotRefuseNeighbours(t *testing.T) {
	_, ts := newTestDaemon(t, daemonConfig{Workers: 1})
	base := ts.URL

	req := testSessionRequest()
	noisyReq := struct {
		sessionRequest
		Legacy string `json:"fault_scenario"`
	}{req, "transfer"}
	var noisy sessionResponse
	if status, raw := doJSON(t, http.MethodPost, base+"/v1/sessions", nil, noisyReq, &noisy); status != http.StatusOK {
		t.Fatalf("create with a legacy fault_scenario key: status %d: %s", status, raw)
	}
	quiet := createSession(t, base, req)

	// Same config and seed: one replica stands for both sessions.
	xs, ys := chaosInputs(quiet.Slots)
	ref, refCx, refOut := chaosReplica(t, req, xs, ys)
	var progs [2]map[string]any
	for i, id := range []string{noisy.ID, quiet.ID} {
		cx := encryptValues(t, base, id, xs)
		cy := encryptValues(t, base, id, ys)
		if cx.Ciphertext != refCx {
			t.Fatalf("session %s: served encryption differs from the replica", id)
		}
		progs[i] = chaosProgram(cx.Ciphertext, cy.Ciphertext)
	}

	for i := 0; i < 60; i++ {
		for j, id := range []string{noisy.ID, quiet.ID} {
			var cr ciphertextResponse
			status, raw := doJSON(t, http.MethodPost, base+"/v1/sessions/"+id+"/eval", nil, progs[j], &cr)
			if status != http.StatusOK {
				t.Fatalf("round %d: session %s eval: status %d: %s", i, id, status, raw)
			}
			if cr.Ciphertext != refOut {
				t.Fatalf("round %d: session %s result is not byte-identical to the in-process reference", i, id)
			}
		}
		if status, raw := doJSON(t, http.MethodGet, base+"/readyz", nil, nil, nil); status != http.StatusOK {
			t.Fatalf("round %d: readyz status %d: %s", i, status, raw)
		}
	}
	want, err := decodeCiphertext(ref, refOut)
	if err != nil {
		t.Fatal(err)
	}
	if !chaosBitsEqual(decryptValues(t, base, quiet.ID, refOut), ref.Decrypt(want)) {
		t.Fatal("served decryption is not bit-exact")
	}
}

// TestFastdChaosOverloadNoCorruption floods a session with concurrent
// requests, some carrying unmeetable deadlines, against a tiny worker pool.
// Every accepted (200) response must be bit-identical to the
// reference; every rejection must be one of the typed degradation statuses.
// No request may observe a corrupt result.
func TestFastdChaosOverloadNoCorruption(t *testing.T) {
	_, ts := newTestDaemon(t, daemonConfig{Workers: 1, QueueDepth: 2})
	base := ts.URL

	req := testSessionRequest()
	sr := createSession(t, base, req)
	xs, ys := chaosInputs(sr.Slots)
	cx := encryptValues(t, base, sr.ID, xs)
	cy := encryptValues(t, base, sr.ID, ys)
	_, _, refOut := chaosReplica(t, req, xs, ys)

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
			if r.body.Ciphertext != refOut {
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
