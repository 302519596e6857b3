package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

	fast "github.com/fastfhe/fast"
)

// readyzView mirrors the /readyz document for test assertions.
type readyzView struct {
	Ready      bool             `json:"ready"`
	LiveShards int              `json:"live_shards"`
	Shards     []shardReadiness `json:"shards"`
	Sessions   sessionReadiness `json:"sessions"`
	Evk        evkReadiness     `json:"evk"`
}

func getReadyz(t *testing.T, base string) (int, readyzView) {
	t.Helper()
	var rv readyzView
	status, raw := doJSON(t, http.MethodGet, base+"/readyz", nil, nil, &rv)
	if status != http.StatusOK && status != http.StatusServiceUnavailable {
		t.Fatalf("readyz: status %d: %s", status, raw)
	}
	return status, rv
}

// TestShardSessionDistribution: with several shards, sessions spread across
// them, the create response names the owning shard, and /readyz's per-shard
// resident counts reconcile with the global view.
func TestShardSessionDistribution(t *testing.T) {
	d, ts := newTestDaemon(t, daemonConfig{Shards: 3, MaxSessions: 32})
	base := ts.URL

	seen := map[int]int{}
	for i := 0; i < 8; i++ {
		sr := createSession(t, base, testSessionRequest())
		if sr.Shard < 0 || sr.Shard >= 3 {
			t.Fatalf("session %s reports shard %d, want 0..2", sr.ID, sr.Shard)
		}
		seen[sr.Shard]++
	}
	if len(seen) < 2 {
		t.Fatalf("8 sessions all landed on one shard: %v", seen)
	}
	status, rv := getReadyz(t, base)
	if status != http.StatusOK || !rv.Ready {
		t.Fatalf("readyz not ready: %d %+v", status, rv)
	}
	if rv.LiveShards != 3 || len(rv.Shards) != 3 {
		t.Fatalf("live=%d shards=%d, want 3/3", rv.LiveShards, len(rv.Shards))
	}
	total := 0
	for _, s := range rv.Shards {
		if s.Fenced || s.Killed {
			t.Fatalf("shard %d unexpectedly fenced/killed", s.Shard)
		}
		if s.Resident != seen[s.Shard] {
			t.Fatalf("shard %d resident=%d, create responses said %d", s.Shard, s.Resident, seen[s.Shard])
		}
		total += s.Resident
	}
	if got := d.sessions.Stats().Resident; total != 8 || got != 8 {
		t.Fatalf("resident rollup %d / %d, want 8", total, got)
	}
}

// TestShardChaosKillShardFailover is the kill-a-shard acceptance drill: with
// three shards over one snapshot store, killing the shard that owns live
// sessions must (a) keep /readyz ready while reporting the fenced shard,
// (b) let survivors serve the dead shard's sessions with bit-identical
// results, (c) surface only typed ladder statuses during the window,
// (d) replay pre-kill idempotent responses exactly once, and (e) show
// cross-shard hits in the shared evk tier (the survivor reuses keys the dead
// shard's traffic filled).
func TestShardChaosKillShardFailover(t *testing.T) {
	d, ts := newTestDaemon(t, daemonConfig{
		Shards:      3,
		StateDir:    t.TempDir(),
		MaxSessions: 32,
	})
	base := ts.URL

	// Create sessions until every shard owns at least one.
	type tracked struct {
		sr    sessionResponse
		cx    ciphertextResponse
		cy    ciphertextResponse
		plain []complex128 // decrypt(cx) baseline
		eval  string       // pre-kill eval output ciphertext
	}
	var sessions []tracked
	byShard := map[int][]int{}
	for i := 0; len(byShard) < 3 && i < 32; i++ {
		sr := createSession(t, base, testSessionRequest())
		xs, ys := chaosInputs(sr.Slots)
		tr := tracked{
			sr: sr,
			cx: encryptValues(t, base, sr.ID, xs),
			cy: encryptValues(t, base, sr.ID, ys),
		}
		tr.plain = decryptValues(t, base, sr.ID, tr.cx.Ciphertext)
		var cr ciphertextResponse
		status, raw := doJSON(t, http.MethodPost, base+"/v1/sessions/"+sr.ID+"/eval",
			map[string]string{"Idempotency-Key": "prekill-" + sr.ID},
			chaosProgram(tr.cx.Ciphertext, tr.cy.Ciphertext), &cr)
		if status != http.StatusOK {
			t.Fatalf("pre-kill eval %s: status %d: %s", sr.ID, status, raw)
		}
		tr.eval = cr.Ciphertext
		sessions = append(sessions, tr)
		byShard[sr.Shard] = append(byShard[sr.Shard], len(sessions)-1)
	}
	if len(byShard) < 3 {
		t.Fatalf("could not populate all 3 shards: %v", byShard)
	}

	// Kill the shard owning session 0.
	victim := sessions[0].sr.Shard
	var kr struct {
		Shard  int  `json:"shard"`
		Killed bool `json:"killed"`
		Live   int  `json:"live"`
	}
	status, raw := doJSON(t, http.MethodPost, fmt.Sprintf("%s/debug/shards/%d/kill", base, victim), nil, nil, &kr)
	if status != http.StatusOK || !kr.Killed || kr.Live != 2 {
		t.Fatalf("kill shard %d: status %d %+v: %s", victim, status, kr, raw)
	}

	// Readiness: the fenced shard is visible, the daemon stays ready.
	status, rv := getReadyz(t, base)
	if status != http.StatusOK || !rv.Ready {
		t.Fatalf("daemon lost readiness after single-shard kill: %d %+v", status, rv)
	}
	if rv.LiveShards != 2 {
		t.Fatalf("live_shards = %d, want 2", rv.LiveShards)
	}
	if !rv.Shards[victim].Fenced || !rv.Shards[victim].Killed {
		t.Fatalf("killed shard not reported fenced: %+v", rv.Shards[victim])
	}

	// Every session the dead shard owned must be served by survivors,
	// bit-identically, with only typed ladder statuses along the way.
	for _, idx := range byShard[victim] {
		tr := sessions[idx]
		// Decrypt the pre-kill ciphertext through the restored session: the
		// secret key surviving bit-exactly is the whole point of snapshots.
		var got []complex128
		deadline := time.Now().Add(10 * time.Second)
		for {
			var dr decryptResponse
			status, raw := doJSON(t, http.MethodPost, base+"/v1/sessions/"+tr.sr.ID+"/decrypt", nil,
				decryptRequest{Ciphertext: tr.cx.Ciphertext}, &dr)
			if status == http.StatusOK {
				got = toComplex(dr.Values)
				break
			}
			if status != http.StatusServiceUnavailable {
				t.Fatalf("failover decrypt %s: status %d (not a ladder rung): %s", tr.sr.ID, status, raw)
			}
			if time.Now().After(deadline) {
				t.Fatalf("failover decrypt %s: still 503 after 10s: %s", tr.sr.ID, raw)
			}
			time.Sleep(20 * time.Millisecond)
		}
		if !chaosBitsEqual(got, tr.plain) {
			t.Fatalf("session %s: restored decrypt is not bit-identical", tr.sr.ID)
		}

		// A retry of the pre-kill eval with its Idempotency-Key must REPLAY
		// the journaled response (exactly-once), not recompute it.
		var cr ciphertextResponse
		status, raw = doJSON(t, http.MethodPost, base+"/v1/sessions/"+tr.sr.ID+"/eval",
			map[string]string{"Idempotency-Key": "prekill-" + tr.sr.ID},
			chaosProgram(tr.cx.Ciphertext, tr.cy.Ciphertext), &cr)
		if status != http.StatusOK {
			t.Fatalf("idempotent retry %s: status %d: %s", tr.sr.ID, status, raw)
		}
		if cr.Ciphertext != tr.eval {
			t.Fatalf("session %s: idempotent retry returned a different ciphertext", tr.sr.ID)
		}

		// A fresh eval (new computation, same program) must also match the
		// pre-kill result bit-for-bit: homomorphic evaluation is deterministic
		// given the restored keys.
		status, raw = doJSON(t, http.MethodPost, base+"/v1/sessions/"+tr.sr.ID+"/eval", nil,
			chaosProgram(tr.cx.Ciphertext, tr.cy.Ciphertext), &cr)
		if status != http.StatusOK {
			t.Fatalf("post-kill eval %s: status %d: %s", tr.sr.ID, status, raw)
		}
		if cr.Ciphertext != tr.eval {
			t.Fatalf("session %s: post-failover eval is not bit-identical to pre-kill", tr.sr.ID)
		}
	}

	// The survivor's eval traffic re-requested galois/relin keys the dead
	// shard's contexts had already pushed through the shared tier.
	_, rv = getReadyz(t, base)
	if rv.Evk.CrossShardHits == 0 {
		t.Fatal("no cross-shard evk hits after failover: shared tier is not shared")
	}
	if rv.Evk.ResidentBytes > rv.Evk.BudgetBytes {
		t.Fatalf("evk resident %d exceeds budget %d", rv.Evk.ResidentBytes, rv.Evk.BudgetBytes)
	}

	// Sessions on surviving shards were never interrupted.
	for sh, idxs := range byShard {
		if sh == victim {
			continue
		}
		for _, idx := range idxs {
			tr := sessions[idx]
			got := decryptValues(t, base, tr.sr.ID, tr.cx.Ciphertext)
			if !chaosBitsEqual(got, tr.plain) {
				t.Fatalf("survivor session %s: decrypt changed after another shard died", tr.sr.ID)
			}
		}
	}
	if d.mShardLost.Value() != 0 {
		t.Fatalf("%d sessions lost in a clean failover, want 0", d.mShardLost.Value())
	}
}

// TestShardRestoreVsEvictRaceChaos is the -race hammer for the
// restore-vs-evict window: many goroutines resolving one session while
// another goroutine keeps evicting it. Every resolve must succeed — never a
// 404 (the registry lost the ID) or a 410 (a healthy snapshot declared
// corrupt) — and restores must stay singleflighted (at most one restore per
// eviction).
func TestShardRestoreVsEvictRaceChaos(t *testing.T) {
	d, ts := newTestDaemon(t, daemonConfig{
		Shards:      2,
		StateDir:    t.TempDir(),
		MaxSessions: 8,
	})
	sr := createSession(t, ts.URL, testSessionRequest())

	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				_, s, err := d.resolve(sr.ID)
				if err != nil {
					select {
					case errs <- err:
					default:
					}
					return
				}
				if s.id != sr.ID {
					select {
					case errs <- fmt.Errorf("resolved wrong session %q", s.id):
					default:
					}
					return
				}
			}
		}()
	}
	evictorDone := make(chan struct{})
	go func() {
		defer close(evictorDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, _, err := d.resolve(sr.ID); err != nil {
				select {
				case errs <- err:
				default:
				}
				return
			}
			if v := d.sessions.Acquire(sr.ID); v.Payload != nil {
				d.evictSession(v)
			}
		}
	}()
	// The resolvers finish on their own; then the evictor is told to stop.
	resolversDone := make(chan struct{})
	go func() {
		wg.Wait()
		close(resolversDone)
	}()
	select {
	case <-resolversDone:
	case <-time.After(30 * time.Second):
		t.Fatal("restore/evict hammer timed out")
	}
	close(stop)
	<-evictorDone
	select {
	case err := <-errs:
		t.Fatalf("restore/evict race surfaced an error: %v", err)
	default:
	}
	if r, e := d.mRestored.Value(), d.mEvicted.Value(); r > e {
		t.Fatalf("restores (%d) exceed evictions (%d): the restore singleflight leaked", r, e)
	}
}

// TestIdemJournalCompactionBounded (journal-bounded regression): the on-disk
// idempotency journal must stay within the in-memory window across repeated
// evict/restore cycles — evict and restore compact it when it has outgrown
// the window — and entries that aged out of
// the window must not resurrect as replays.
func TestIdemJournalCompactionBounded(t *testing.T) {
	dir := t.TempDir()
	d, ts := newTestDaemon(t, daemonConfig{
		StateDir: dir,
		IdemCap:  4,
	})
	base := ts.URL
	sr := createSession(t, base, testSessionRequest())
	vals := fromComplex([]complex128{1, 2, 3, 4})

	journalLines := func() int {
		t.Helper()
		return len(journalFrames(t, dir, sr.ID))
	}

	cycle := func(round int) {
		t.Helper()
		// 8 recorded outcomes against a table capped at 4: the append-only
		// journal grows past the cap...
		for i := 0; i < 8; i++ {
			key := fmt.Sprintf("r%d-k%d", round, i)
			status, raw := doJSON(t, http.MethodPost, base+"/v1/sessions/"+sr.ID+"/encrypt",
				map[string]string{"Idempotency-Key": key}, encryptRequest{Values: vals}, nil)
			if status != http.StatusOK {
				t.Fatalf("encrypt %s: status %d: %s", key, status, raw)
			}
		}
		if journalLines() < 8 {
			t.Fatalf("round %d: journal has %d lines before evict, want >= 8 appends", round, journalLines())
		}
		evictNow(t, d, sr.ID)
		if got := journalLines(); got > d.cfg.IdemCap {
			t.Fatalf("round %d: journal holds %d lines after evict-compaction, cap is %d", round, got, d.cfg.IdemCap)
		}
		// Restore (first request faults it back in) and check replay
		// semantics: a key inside the surviving window replays; a key that
		// aged out re-executes.
		last := fmt.Sprintf("r%d-k7", round)
		resp := idemProbe(t, base, sr.ID, last, vals)
		if resp.Header.Get("Idempotency-Replayed") != "true" {
			t.Fatalf("round %d: key %s inside the window did not replay", round, last)
		}
		resp.Body.Close()
		first := fmt.Sprintf("r%d-k0", round)
		resp = idemProbe(t, base, sr.ID, first, vals)
		if resp.Header.Get("Idempotency-Replayed") == "true" {
			t.Fatalf("round %d: key %s beyond the bounded window resurrected as a replay", round, first)
		}
		resp.Body.Close()
		if got := journalLines(); got > d.cfg.IdemCap+2 {
			t.Fatalf("round %d: journal grew to %d lines after restore, cap %d (+2 probes)", round, got, d.cfg.IdemCap)
		}
	}
	for round := 0; round < 3; round++ {
		cycle(round)
	}
}

// idemProbe re-sends one idempotent encrypt and returns the raw response so
// the caller can inspect replay headers.
func idemProbe(t *testing.T, base, id, key string, vals []cnum) *http.Response {
	t.Helper()
	raw, err := json.Marshal(encryptRequest{Values: vals})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, base+"/v1/sessions/"+id+"/encrypt", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Idempotency-Key", key)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("idem probe %s: status %d", key, resp.StatusCode)
	}
	return resp
}

// postStatus posts body from a goroutine that may not call t.Fatal: 0 means
// the request itself failed.
func postStatus(url string, body any) int {
	raw, err := json.Marshal(body)
	if err != nil {
		return 0
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		return 0
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestShardFenceDuringCreateFailsOver: a shard fenced after a create was routed to
// it but before the create publishes — keygen and the snapshot write take
// seconds — must not end up holding the session: onFence has already run and
// will never migrate it, so every request would answer 503 + Retry-After for
// good while the session kept its slot. The snapshot being durable, the
// create still answers 200 and the first request restores the session on a
// survivor.
func TestShardFenceDuringCreateFailsOver(t *testing.T) {
	d, ts := newTestDaemon(t, daemonConfig{Shards: 2, StateDir: t.TempDir(), MaxSessions: 8})
	home, err := d.ring.Owner("s1")
	if err != nil {
		t.Fatal(err)
	}
	held, release := holdStoreAt(d, "snap.create-tmp")
	created := make(chan int, 1)
	go func() { created <- postStatus(ts.URL+"/v1/sessions", testSessionRequest()) }()
	<-held
	if status, raw := doJSON(t, http.MethodPost, fmt.Sprintf("%s/debug/shards/%d/kill", ts.URL, home), nil, nil, nil); status != http.StatusOK {
		t.Fatalf("kill shard %d: status %d: %s", home, status, raw)
	}
	close(release)
	if status := <-created; status != http.StatusOK {
		t.Fatalf("create whose home shard was fenced under it: status %d, want 200 (its snapshot is durable)", status)
	}

	var ct ciphertextResponse
	status, raw := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions/s1/encrypt", nil,
		encryptRequest{Values: fromComplex([]complex128{1, 2, 3, 4})}, &ct)
	if status != http.StatusOK {
		t.Fatalf("encrypt on a session created across a fence: status %d (%s): it is stranded on the fenced shard", status, raw)
	}
	status, raw = doJSON(t, http.MethodPost, ts.URL+"/v1/sessions/s1/eval", nil,
		evalOf(fast.NewProgram().In("x").Rotate("out", "x", 1, hybrid).Return("out"), ct.Ciphertext), nil)
	if status != http.StatusOK {
		t.Fatalf("eval on a survivor: status %d: %s", status, raw)
	}
	_, rv := getReadyz(t, ts.URL)
	if rv.Shards[home].Resident != 0 || rv.Shards[1-home].Resident != 1 {
		t.Fatalf("after failover: %+v, want the session resident on the survivor only", rv.Shards)
	}
	if rv.Sessions.Resident != 1 || rv.Sessions.Persisted != 0 || d.mShardLost.Value() != 0 {
		t.Fatalf("after failover: sessions %+v, lost %d", rv.Sessions, d.mShardLost.Value())
	}
}
