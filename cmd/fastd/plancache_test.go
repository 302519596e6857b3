package main

import (
	"math"
	"net/http"
	"testing"

	fast "github.com/fastfhe/fast"
)

// TestPlanCacheLRU unit-tests the bounded LRU: eviction order, promotion on
// get, and idempotent re-insertion.
func TestPlanCacheLRU(t *testing.T) {
	pc := newPlanCache(2, nil, nil)
	pa, pb, pd := &fast.Plan{}, &fast.Plan{}, &fast.Plan{}
	pc.put("a", pa)
	pc.put("b", pb)
	if pc.get("a") != pa {
		t.Fatal("a missing after insert")
	}
	pc.put("c", pd) // capacity 2: evicts b (a was promoted by the get)
	if pc.get("b") != nil {
		t.Fatal("b should have been evicted as least-recently-used")
	}
	if pc.get("a") != pa || pc.get("c") != pd {
		t.Fatal("a and c should survive eviction")
	}
	pc.put("a", pb) // refresh existing key: no growth, value replaced
	if pc.size() != 2 {
		t.Fatalf("size = %d after refreshing existing key, want 2", pc.size())
	}
	if pc.get("a") != pb {
		t.Fatal("refresh should replace the cached value")
	}
}

// TestDaemonPlanCacheHitRate drives the serving path end to end: the same
// program evaluated repeatedly on one session must compile once and hit the
// plan cache on every subsequent request, surfacing as
// serve.plan_cache.{hits,misses} in the observer registry. Changing the input
// levels (same program text, lower-level ciphertexts) must key a fresh plan.
func TestDaemonPlanCacheHitRate(t *testing.T) {
	ob := fast.NewObserver()
	d, ts := newTestDaemon(t, daemonConfig{Workers: 1, Observer: ob})
	base := ts.URL

	sr := createSession(t, base, testSessionRequest())
	n := sr.Slots
	x := make([]complex128, n)
	y := make([]complex128, n)
	for i := 0; i < n; i++ {
		x[i] = complex(0.4*math.Cos(float64(i)), 0.1)
		y[i] = complex(0.25, -0.05*math.Sin(float64(i)))
	}
	cx := encryptValues(t, base, sr.ID, x)
	cy := encryptValues(t, base, sr.ID, y)

	counters := func() (hits, misses uint64) {
		snap := ob.Registry().Snapshot()
		return snap.Counters["serve.plan_cache.hits"], snap.Counters["serve.plan_cache.misses"]
	}

	ops := fast.NewProgram().In("x", "y").
		Mul("t", "x", "y", hybrid).
		Rotate("out", "t", 1, hybrid).
		Return("out")
	prog := evalOf(ops, cx.Ciphertext, cy.Ciphertext)
	const evals = 5
	var lastCT string
	for i := 0; i < evals; i++ {
		var cr ciphertextResponse
		status, raw := doJSON(t, http.MethodPost, base+"/v1/sessions/"+sr.ID+"/eval", nil, prog, &cr)
		if status != http.StatusOK {
			t.Fatalf("eval %d: status %d: %s", i, status, raw)
		}
		lastCT = cr.Ciphertext
	}
	hits, misses := counters()
	if misses != 1 {
		t.Fatalf("misses = %d after %d identical evals, want exactly 1 compile", misses, evals)
	}
	if hits != evals-1 {
		t.Fatalf("hits = %d after %d identical evals, want %d", hits, evals, evals-1)
	}
	if rate := float64(hits) / float64(hits+misses); rate < 0.8 {
		t.Fatalf("hit rate %.2f below 0.8 for a steady workload", rate)
	}

	// Same program text, different input levels (the eval output sits one
	// level below the fresh encryptions): a correct cache MUST key these
	// separately — the planner's method and unit decisions are level-dependent.
	status, raw := doJSON(t, http.MethodPost, base+"/v1/sessions/"+sr.ID+"/eval", nil, evalOf(ops, lastCT, lastCT), nil)
	if status != http.StatusOK {
		t.Fatalf("lower-level eval: status %d: %s", status, raw)
	}
	_, misses2 := counters()
	if misses2 != misses+1 {
		t.Fatalf("misses = %d after level change, want %d (fresh compile)", misses2, misses+1)
	}

	// The cached plans live per session and the shapes above stay far below
	// capacity, so the session cache holds exactly the two compiled plans.
	if got := residentSession(d, sr.ID).plans.size(); got != 2 {
		t.Fatalf("session plan cache holds %d plans, want 2", got)
	}
}
