package main

// Regression test for the REVIEW.md finding against the daemon: the
// MaxSessions bound must hold under concurrent creates (keygen runs for
// seconds outside the registry lock).

import (
	"bytes"
	"encoding/json"
	"net/http"
	"sync"
	"testing"
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
