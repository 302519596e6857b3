package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	fast "github.com/fastfhe/fast"
	"github.com/fastfhe/fast/internal/serve"
	sessreg "github.com/fastfhe/fast/internal/session"
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
		if s.Fenced {
			t.Fatalf("shard %d unexpectedly fenced", s.Shard)
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
	if !rv.Shards[victim].Fenced {
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

		// A retry of the pre-kill eval with its Idempotency-Key must be a
		// replay (exactly-once): the pre-kill bytes, marked and counted.
		var cr ciphertextResponse
		replays := d.mIdemReplays.Value()
		status, raw, hdr := keyedPost(t, base+"/v1/sessions/"+tr.sr.ID+"/eval", "prekill-"+tr.sr.ID,
			chaosProgram(tr.cx.Ciphertext, tr.cy.Ciphertext))
		if status != http.StatusOK {
			t.Fatalf("idempotent retry %s: status %d: %s", tr.sr.ID, status, raw)
		}
		if err := json.Unmarshal(raw, &cr); err != nil || cr.Ciphertext != tr.eval {
			t.Fatalf("session %s: idempotent retry returned a different ciphertext (err %v)", tr.sr.ID, err)
		}
		if hdr.Get("Idempotency-Replayed") != "true" || d.mIdemReplays.Value() != replays+1 {
			t.Fatalf("session %s: idempotent retry after failover was not a replay", tr.sr.ID)
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

// TestIdemJournalRingBounded: once the ring has wrapped, the file is exactly
// magic + IdemCap slots and holds the newest IdemCap keys, across
// evict/restore rounds and a restart; a key inside the window replays and a
// key that aged out re-executes.
func TestIdemJournalRingBounded(t *testing.T) {
	const capacity = 4
	dir := t.TempDir()
	d, ts := newTestDaemon(t, daemonConfig{StateDir: dir, IdemCap: capacity})
	sr := createSession(t, ts.URL, testSessionRequest())
	ct := encryptValues(t, ts.URL, sr.ID, []complex128{1, 2, 3, 4}).Ciphertext
	path := filepath.Join(dir, sr.ID+".idem")

	for round := 0; round < 4; round++ {
		if round == 3 { // a restart: the ring is read back once
			d, ts = newTestDaemon(t, daemonConfig{StateDir: dir, IdemCap: capacity})
		}
		var keys []string
		for i := 0; i < 6; i++ {
			keys = append(keys, fmt.Sprintf("r%d-k%d", round, i))
			if _, replayed := keyedEval(t, ts.URL, sr.ID, keys[i], ct); replayed {
				t.Fatalf("round %d: fresh key %s replayed", round, keys[i])
			}
		}
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if want := int64(len(idemMagic) + capacity*idemSlotLen); fi.Size() != want {
			t.Fatalf("round %d: ring is %d bytes, want magic + %d slots = %d", round, fi.Size(), capacity, want)
		}
		held := map[[sha256.Size]byte]bool{}
		for _, r := range ringRecords(t, dir, sr.ID, capacity) {
			held[r.key] = true
		}
		for i, k := range keys {
			if newest := i >= len(keys)-capacity; held[sha256.Sum256([]byte(k))] != newest {
				t.Fatalf("round %d: key %s in the ring = %v, want %v (the newest %d keys)", round, k, !newest, newest, capacity)
			}
		}
		evictNow(t, d, sr.ID)
		if _, replayed := keyedEval(t, ts.URL, sr.ID, keys[len(keys)-1], ct); !replayed {
			t.Fatalf("round %d: key %s inside the window did not replay after evict/restore", round, keys[len(keys)-1])
		}
		if _, replayed := keyedEval(t, ts.URL, sr.ID, keys[0], ct); replayed {
			t.Fatalf("round %d: key %s beyond the window resurrected as a replay", round, keys[0])
		}
	}
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
// seconds — must not end up holding the session: the kill has already
// emptied the shard and will never migrate it, so every request would answer 503 + Retry-After for
// good while the session kept its slot. The snapshot being durable, the
// create still answers 200 and the first request restores the session on a
// survivor.
func TestShardFenceDuringCreateFailsOver(t *testing.T) {
	d, ts := newTestDaemon(t, daemonConfig{Shards: 2, StateDir: t.TempDir(), MaxSessions: 8})
	held, release := holdStoreAt(d, "snap.create-tmp")
	created := make(chan int, 1)
	go func() { created <- postStatus(ts.URL+"/v1/sessions", testSessionRequest()) }()
	<-held
	v := d.sessions.Acquire("s1")
	if v.State != sessreg.Reserved {
		t.Fatalf("s1 is %v while its create writes the snapshot, want reserved", v.State)
	}
	home := v.Shard
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

// TestShardOverloadNeverFences: a shard whose queue stays full for a
// sustained window answers 429 and keeps its sessions — overload is not a
// failure, and nothing but the kill endpoint fences. Fencing a busy shard
// would hand its load to the survivors as a storm of restores, which is what
// a health probe sent through the shard's own queue would do.
func TestShardOverloadNeverFences(t *testing.T) {
	d, ts := newTestDaemon(t, daemonConfig{Shards: 2, Workers: 1, QueueDepth: 1, StateDir: t.TempDir(), MaxSessions: 8})
	sr := createSession(t, ts.URL, testSessionRequest())
	for sr.Shard != 0 {
		sr = createSession(t, ts.URL, testSessionRequest())
	}

	// Keep shard 0's one worker busy and its one queue slot taken.
	release := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-release:
					return
				default:
				}
				err := d.shards[0].srv.Do(context.Background(), serve.Op{Name: "busy"}, func(context.Context) error {
					select {
					case <-release:
					case <-time.After(20 * time.Millisecond):
					}
					return nil
				})
				if err != nil { // queue full: try again shortly, without spinning
					time.Sleep(time.Millisecond)
				}
			}
		}()
	}
	refused := 0
	for end := time.Now().Add(250 * time.Millisecond); time.Now().Before(end); {
		status, raw := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions/"+sr.ID+"/encrypt", nil,
			encryptRequest{Values: fromComplex([]complex128{1})}, nil)
		switch status {
		case http.StatusTooManyRequests:
			refused++
		case http.StatusOK:
		default:
			t.Fatalf("encrypt on an overloaded shard: status %d: %s", status, raw)
		}
	}
	close(release)
	wg.Wait()

	if refused == 0 {
		t.Fatal("no request saw the full queue: the shard was never overloaded")
	}
	status, rv := getReadyz(t, ts.URL)
	if status != http.StatusOK || rv.LiveShards != 2 || rv.Shards[0].Fenced || rv.Shards[0].Resident == 0 {
		t.Fatalf("after overload: status %d %+v, want both shards live and the session still on shard 0", status, rv)
	}
	encryptValues(t, ts.URL, sr.ID, []complex128{1})
	if m, r := d.mShardMigrated.Value(), d.mRestored.Value(); m != 0 || r != 0 {
		t.Fatalf("overload moved sessions: %d migrated, %d restored", m, r)
	}
}

// TestShardResidentBoundBelowShardsRefused: every shard needs a slice of at
// least one resident session, so a bound below the shard count cannot hold
// and the daemon refuses it, naming both flags. At the bound it holds: with
// one resident per shard, the shards together never keep more than the
// bound in memory.
func TestShardResidentBoundBelowShardsRefused(t *testing.T) {
	_, err := newDaemon(daemonConfig{Shards: 2, MaxResident: 1, StateDir: t.TempDir()})
	if err == nil || !strings.Contains(err.Error(), "-max-resident-sessions 1") || !strings.Contains(err.Error(), "-shards 2") {
		t.Fatalf("newDaemon with 1 resident over 2 shards: %v, want a refusal naming both flags", err)
	}

	d, ts := newTestDaemon(t, daemonConfig{Shards: 2, MaxResident: 2, StateDir: t.TempDir()})
	for i := 0; i < 4; i++ {
		createSession(t, ts.URL, testSessionRequest())
		if st := d.sessions.Stats(); st.Resident > 2 {
			t.Fatalf("after %d creates: %d resident, past the bound of 2 (%v per shard)", i+1, st.Resident, st.ShardResident)
		}
	}
}

// TestShardKillEndpoint: the kill endpoint validates its shard, fences once
// (a repeat is a no-op that answers the same), and killing every shard takes
// the daemon out of readiness, with a create answered 503 + Retry-After.
func TestShardKillEndpoint(t *testing.T) {
	d, ts := newTestDaemon(t, daemonConfig{Shards: 2, MaxSessions: 8})
	sr := createSession(t, ts.URL, testSessionRequest()) // no state dir: lost with its shard
	type killResponse struct {
		Shard  int  `json:"shard"`
		Killed bool `json:"killed"`
		Live   int  `json:"live"`
	}
	for _, tc := range []struct {
		path   string
		status int
		live   int
		lost   uint64
	}{
		{"x", http.StatusBadRequest, 2, 0},
		{"-1", http.StatusBadRequest, 2, 0},
		{"2", http.StatusBadRequest, 2, 0},
		{fmt.Sprint(sr.Shard), http.StatusOK, 1, 1},
		{fmt.Sprint(sr.Shard), http.StatusOK, 1, 1},
		{fmt.Sprint(1 - sr.Shard), http.StatusOK, 0, 1},
	} {
		var kr killResponse
		status, raw := doJSON(t, http.MethodPost, ts.URL+"/debug/shards/"+tc.path+"/kill", nil, nil, &kr)
		if status != tc.status || (status == http.StatusOK && (!kr.Killed || kr.Live != tc.live)) {
			t.Fatalf("kill %s: status %d %+v, want %d with %d live: %s", tc.path, status, kr, tc.status, tc.live, raw)
		}
		if live := d.sessions.Stats().Live; live != tc.live || d.mShardLost.Value() != tc.lost {
			t.Fatalf("after kill %s: live %d, lost %d; want %d, %d", tc.path, live, d.mShardLost.Value(), tc.live, tc.lost)
		}
	}
	if status, rv := getReadyz(t, ts.URL); status != http.StatusServiceUnavailable || rv.Ready {
		t.Fatalf("readyz with every shard killed: status %d ready %v", status, rv.Ready)
	}
	resp, err := http.Post(ts.URL+"/v1/sessions", "application/json", bytes.NewReader(mustJSON(t, testSessionRequest())))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("create with every shard killed: status %d Retry-After %q", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
}
