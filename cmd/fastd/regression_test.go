package main

// Regression tests for the REVIEW.md findings against the daemon: the
// MaxSessions bound must hold under concurrent creates (keygen runs for
// seconds outside the registry lock), and healthy-session traffic must not
// reset the daemon-global breaker's consecutive-failure streak.

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"sync"
	"testing"

	fast "github.com/fastfhe/fast"
	"github.com/fastfhe/fast/internal/serve"
)

// TestSessionLimitUnderConcurrentCreates: N concurrent creates that all pass
// a check-then-act limit test would grow the registry past MaxSessions while
// keygen runs unlocked. The slot reservation must admit exactly MaxSessions
// and 429 the rest, leaving no reservation behind.
func TestSessionLimitUnderConcurrentCreates(t *testing.T) {
	const limit = 2
	d, ts := newTestDaemon(t, daemonConfig{Workers: 4, QueueDepth: 16, MaxSessions: limit})

	body, err := json.Marshal(testSessionRequest())
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	statuses := make([]int, n)
	ids := make([]string, n) // of the creates that succeeded
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/sessions", "application/json", bytes.NewReader(body))
			if err != nil {
				return // transport error recorded as status 0
			}
			defer resp.Body.Close()
			statuses[i] = resp.StatusCode
			var sr sessionResponse
			if json.NewDecoder(resp.Body).Decode(&sr) == nil {
				ids[i] = sr.ID
			}
		}(i)
	}
	wg.Wait()

	var created, refused int
	for i, st := range statuses {
		switch st {
		case http.StatusOK:
			created++
		case http.StatusTooManyRequests:
			refused++
		default:
			t.Errorf("create %d: status %d, want 200 or 429", i, st)
		}
	}
	if created != limit || refused != n-limit {
		t.Fatalf("created %d / refused %d, want %d / %d", created, refused, limit, n-limit)
	}
	st := d.sessions.Stats()
	if st.Resident != limit {
		t.Fatalf("registry holds %d sessions, want %d", st.Resident, limit)
	}
	if st.Occupancy != limit {
		t.Fatalf("occupancy %d after creates settled, want %d: reservations leaked", st.Occupancy, limit)
	}

	// Failed creates must have released their reservations: deleting one
	// session frees exactly one slot for a new create.
	var sr sessionResponse
	for _, id := range ids {
		if id == "" {
			continue
		}
		status, raw := doJSON(t, http.MethodDelete, ts.URL+"/v1/sessions/"+id, nil, nil, nil)
		if status != http.StatusNoContent {
			t.Fatalf("delete %s: status %d: %s", id, status, raw)
		}
		break
	}
	status, raw := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions", nil, testSessionRequest(), &sr)
	if status != http.StatusOK {
		t.Fatalf("create after delete: status %d: %s", status, raw)
	}
}

// TestHealthyTrafficDoesNotResetBreakerStreak: the breaker is daemon-global
// and consecutive-failure based; evals on sessions without a fault plan must
// record nothing, or any interleaved healthy traffic masks a sustained fault
// storm on another session and the breaker never trips.
func TestHealthyTrafficDoesNotResetBreakerStreak(t *testing.T) {
	d, err := newDaemon(daemonConfig{BreakerThreshold: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = d.drain(context.Background()) })

	fctx, err := fast.NewContext(fast.ContextConfig{LogN: 9, Levels: 2, LogScale: 36, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	healthy := &session{id: "h", ctx: fctx}
	if healthy.ctx.FaultPlanActive() {
		t.Fatal("test session unexpectedly has a fault plan")
	}

	sh := d.shards[0]
	// One fault report shy of the threshold...
	sh.breaker.RecordFailure()
	// ...then a burst of healthy-session evals interleaves...
	for i := 0; i < 5; i++ {
		sh.recordFaultHealth(healthy)
	}
	// ...and the storm's next fault report must still reach the threshold.
	sh.breaker.RecordFailure()
	if st := sh.breaker.State(); st != serve.BreakerOpen {
		t.Fatalf("breaker state = %v, want open: healthy traffic reset the failure streak", st)
	}
}
