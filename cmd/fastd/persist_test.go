package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	fast "github.com/fastfhe/fast"
)

// readyzSessions fetches /readyz and returns its status plus the sessions
// block — the occupancy/lifecycle surface these tests assert on.
func readyzSessions(t *testing.T, base string) (int, sessionReadiness) {
	t.Helper()
	var r struct {
		Ready    bool             `json:"ready"`
		Sessions sessionReadiness `json:"sessions"`
	}
	status, raw := doJSON(t, http.MethodGet, base+"/readyz", nil, nil, nil)
	if err := json.Unmarshal(raw, &r); err != nil {
		t.Fatalf("readyz decode %q: %v", raw, err)
	}
	return status, r.Sessions
}

func abs2(v complex128) float64 { return math.Hypot(real(v), imag(v)) }

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func readAll(t *testing.T, r io.Reader) []byte {
	t.Helper()
	raw, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// spliceLegacyMetaKey rewrites a snapshot file into the one a build whose
// SessionMeta still carried "fault_scenario" would have written: the key
// appended to the header's meta object, hdrLen and the trailing SHA-256
// recomputed.
func spliceLegacyMetaKey(t *testing.T, path, scenario string) {
	t.Helper()
	snap, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const hdrStart = 8 + 4 // magic, hdrLen
	hdrLen := int(binary.LittleEndian.Uint32(snap[8:hdrStart]))
	metaEnd := bytes.Index(snap[hdrStart:hdrStart+hdrLen], []byte(`},"config":`))
	if metaEnd < 0 {
		t.Fatalf("snapshot %s has no meta object before config", path)
	}
	key := `,"fault_scenario":"` + scenario + `"`
	out := append([]byte(nil), snap[:hdrStart+metaEnd]...)
	out = append(out, key...)
	out = append(out, snap[hdrStart+metaEnd:len(snap)-sha256.Size]...)
	binary.LittleEndian.PutUint32(out[8:hdrStart], uint32(hdrLen+len(key)))
	sum := sha256.Sum256(out)
	if err := os.WriteFile(path, append(out, sum[:]...), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestChaosCrashRestartDurability is the in-process kill-and-restart drill:
// daemon A write-ahead persists a session, is abandoned WITHOUT drain (the
// process-death analogue — nothing between the fsync'd snapshot and the next
// daemon), and daemon B on the same state dir must lazily restore the session
// and decrypt a pre-crash ciphertext byte-for-byte identically to the
// reference A produced. The legacy case restarts on a snapshot as an older
// build wrote it, with "fault_scenario":"transfer" in its meta: the key is
// ignored and the session restores all the same.
func TestChaosCrashRestartDurability(t *testing.T) {
	t.Run("as-written", func(t *testing.T) { crashRestart(t, func(string) {}) })
	t.Run("legacy-fault-scenario", func(t *testing.T) {
		crashRestart(t, func(snap string) { spliceLegacyMetaKey(t, snap, "transfer") })
	})
}

// crashRestart runs the drill; betweenDaemons may rewrite the session's
// snapshot file while no daemon holds it.
func crashRestart(t *testing.T, betweenDaemons func(snapPath string)) {
	dir := t.TempDir()
	_, tsA := newTestDaemon(t, daemonConfig{StateDir: dir})

	sr := createSession(t, tsA.URL, testSessionRequest())
	vals := make([]complex128, sr.Slots)
	for i := range vals {
		vals[i] = complex(0.25*float64(i%7), -0.125*float64(i%5))
	}
	ct := encryptValues(t, tsA.URL, sr.ID, vals)
	refStatus, refBody := doJSON(t, http.MethodPost, tsA.URL+"/v1/sessions/"+sr.ID+"/decrypt", nil,
		decryptRequest{Ciphertext: ct.Ciphertext}, nil)
	if refStatus != http.StatusOK {
		t.Fatalf("reference decrypt: status %d: %s", refStatus, refBody)
	}

	// "Crash": no drain, no shutdown hook — daemon B sees only what A made
	// durable before each response it released.
	betweenDaemons(filepath.Join(dir, sr.ID+".snap"))
	_, tsB := newTestDaemon(t, daemonConfig{StateDir: dir})
	gotStatus, gotBody := doJSON(t, http.MethodPost, tsB.URL+"/v1/sessions/"+sr.ID+"/decrypt", nil,
		decryptRequest{Ciphertext: ct.Ciphertext}, nil)
	if gotStatus != http.StatusOK {
		t.Fatalf("post-restart decrypt: status %d: %s", gotStatus, gotBody)
	}
	if !bytes.Equal(refBody, gotBody) {
		t.Fatalf("restored session decrypts differently:\n pre-crash: %s\npost-crash: %s", refBody, gotBody)
	}

	// The restored session must also keep working forward: fresh encrypts on
	// the reseeded epoch round-trip, and the lifecycle counters report the
	// restore.
	ct2 := encryptValues(t, tsB.URL, sr.ID, vals)
	got := decryptValues(t, tsB.URL, sr.ID, ct2.Ciphertext)
	for i := range vals {
		if d := got[i] - vals[i]; abs2(d) > 1e-3 {
			t.Fatalf("slot %d after restart: got %v, want %v", i, got[i], vals[i])
		}
	}
	if _, sess := readyzSessions(t, tsB.URL); sess.Restored != 1 || sess.Resident != 1 {
		t.Fatalf("readyz after restore: %+v, want restored=1 resident=1", sess)
	}
}

// TestChaosIdempotentReplayAcrossRestart: a completed idempotent request is
// journaled (fsync'd) before its response is released, so a client retrying
// the same Idempotency-Key after a crash gets the recorded response bytes
// back — exactly once end to end, with the replay marked.
func TestChaosIdempotentReplayAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	_, tsA := newTestDaemon(t, daemonConfig{StateDir: dir})

	sr := createSession(t, tsA.URL, testSessionRequest())
	vals := make([]complex128, sr.Slots)
	for i := range vals {
		vals[i] = complex(0.5, 0.25)
	}
	ct := encryptValues(t, tsA.URL, sr.ID, vals)
	prog := evalOf(fast.NewProgram().In("x").AddConst("out", "x", 0.125).Return("out"), ct.Ciphertext)
	hdr := map[string]string{"Idempotency-Key": "req-42"}
	url := "/v1/sessions/" + sr.ID + "/eval"
	st1, body1 := doJSON(t, http.MethodPost, tsA.URL+url, hdr, prog, nil)
	if st1 != http.StatusOK {
		t.Fatalf("eval: status %d: %s", st1, body1)
	}

	_, tsB := newTestDaemon(t, daemonConfig{StateDir: dir})
	req, _ := http.NewRequest(http.MethodPost, tsB.URL+url, bytes.NewReader(mustJSON(t, prog)))
	req.Header.Set("Idempotency-Key", "req-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body2 := readAll(t, resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("replayed eval: status %d: %s", resp.StatusCode, body2)
	}
	if resp.Header.Get("Idempotency-Replayed") != "true" {
		t.Fatal("post-restart retry was re-executed, not replayed")
	}
	if !bytes.Equal(body1, body2) {
		t.Fatal("replayed response differs from the original")
	}
}

// TestIdempotentReplaySameProcess: duplicate keys within one daemon replay
// the recorded outcome without re-executing, and a key-less request bypasses
// the table.
func TestIdempotentReplaySameProcess(t *testing.T) {
	d, ts := newTestDaemon(t, daemonConfig{})

	sr := createSession(t, ts.URL, testSessionRequest())
	vals := make([]complex128, sr.Slots)
	for i := range vals {
		vals[i] = complex(0.1*float64(i%3), 0)
	}
	ct := encryptValues(t, ts.URL, sr.ID, vals)
	prog := evalOf(fast.NewProgram().In("x").Rotate("out", "x", 1, hybrid).Return("out"), ct.Ciphertext)
	url := ts.URL + "/v1/sessions/" + sr.ID + "/eval"
	hdr := map[string]string{"Idempotency-Key": "k1"}
	_, body1 := doJSON(t, http.MethodPost, url, hdr, prog, nil)
	_, body2 := doJSON(t, http.MethodPost, url, hdr, prog, nil)
	if !bytes.Equal(body1, body2) {
		t.Fatal("duplicate idempotent request returned a different response")
	}
	if got := d.mIdemReplays.Value(); got != 1 {
		t.Fatalf("fastd.idem.replays = %d, want 1", got)
	}
	// A different key re-executes (evaluation is deterministic for this
	// program, so only the counter distinguishes the paths).
	doJSON(t, http.MethodPost, url, map[string]string{"Idempotency-Key": "k2"}, prog, nil)
	if got := d.mIdemReplays.Value(); got != 1 {
		t.Fatalf("fastd.idem.replays after distinct key = %d, want 1", got)
	}
}

// TestChaosCorruptSnapshotSkipped flips one byte in a persisted snapshot and
// asserts the recovery contract: the session is refused with the typed
// corrupt-snapshot error (410, never a wrong decrypt), the corruption is
// counted, and the daemon keeps serving fresh sessions.
func TestChaosCorruptSnapshotSkipped(t *testing.T) {
	dir := t.TempDir()
	_, tsA := newTestDaemon(t, daemonConfig{StateDir: dir})
	sr := createSession(t, tsA.URL, testSessionRequest())

	path := filepath.Join(dir, sr.ID+".snap")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	_, tsB := newTestDaemon(t, daemonConfig{StateDir: dir})
	status, body := doJSON(t, http.MethodPost, tsB.URL+"/v1/sessions/"+sr.ID+"/encrypt", nil,
		encryptRequest{Values: fromComplex(make([]complex128, 4))}, nil)
	if status != http.StatusGone {
		t.Fatalf("request against corrupt snapshot: status %d (%s), want 410", status, body)
	}
	if _, sess := readyzSessions(t, tsB.URL); sess.Corrupt != 1 {
		t.Fatalf("readyz corrupt = %d, want 1", sess.Corrupt)
	}
	// The daemon itself stays healthy.
	createSession(t, tsB.URL, testSessionRequest())
}

// TestSessionEvictionRestoreLRU drives the resident bound: with
// MaxResident=1 the older session is snapshotted out (dropping its compiled
// plans), shows up as persisted on /readyz, and faults back in on its next
// request with state intact.
func TestSessionEvictionRestoreLRU(t *testing.T) {
	dir := t.TempDir()
	d, ts := newTestDaemon(t, daemonConfig{StateDir: dir, MaxResident: 1, MaxSessions: 8})

	s1 := createSession(t, ts.URL, testSessionRequest())
	vals := make([]complex128, s1.Slots)
	for i := range vals {
		vals[i] = complex(float64(i%4)*0.2, 0.1)
	}
	ct := encryptValues(t, ts.URL, s1.ID, vals)
	// Compile a plan on s1 so eviction has cache entries to drop.
	prog := evalOf(fast.NewProgram().In("x").AddConst("out", "x", 1).Return("out"), ct.Ciphertext)
	if st, body := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions/"+s1.ID+"/eval", nil, prog, nil); st != http.StatusOK {
		t.Fatalf("eval on s1: status %d: %s", st, body)
	}

	createSession(t, ts.URL, testSessionRequest()) // overflows MaxResident=1, evicts s1
	_, sess := readyzSessions(t, ts.URL)
	if sess.Resident != 1 || sess.Persisted != 1 || sess.Evicted != 1 {
		t.Fatalf("after overflow: %+v, want resident=1 persisted=1 evicted=1", sess)
	}
	if got := d.mPlanEvicted.Value(); got == 0 {
		t.Fatal("serve.plan_cache.evicted did not count the dropped plans")
	}

	// s1 faults back in transparently and still decrypts its ciphertext.
	got := decryptValues(t, ts.URL, s1.ID, ct.Ciphertext)
	for i := range vals {
		if d := got[i] - vals[i]; abs2(d) > 1e-3 {
			t.Fatalf("slot %d after evict+restore: got %v, want %v", i, got[i], vals[i])
		}
	}
	if _, sess := readyzSessions(t, ts.URL); sess.Restored != 1 {
		t.Fatalf("readyz restored = %d, want 1", sess.Restored)
	}
}

// TestEvictionFollowsUse: resident pressure is the one eviction trigger, and
// its victim is the session used least recently, not the one created first.
// Two sessions fill MaxResident=2 and stay resident; a request to the older
// one makes the newer one the victim of the third create.
func TestEvictionFollowsUse(t *testing.T) {
	d, ts := newTestDaemon(t, daemonConfig{StateDir: t.TempDir(), MaxResident: 2, MaxSessions: 8})
	s1 := createSession(t, ts.URL, testSessionRequest())
	s2 := createSession(t, ts.URL, testSessionRequest())
	if _, sess := readyzSessions(t, ts.URL); sess.Resident != 2 || sess.Evicted != 0 {
		t.Fatalf("sessions within the bound: %+v, want both resident, none evicted", sess)
	}
	encryptValues(t, ts.URL, s1.ID, make([]complex128, 4))
	s3 := createSession(t, ts.URL, testSessionRequest())
	for id, want := range map[string]bool{s1.ID: true, s2.ID: false, s3.ID: true} {
		if got := residentSession(d, id) != nil; got != want {
			t.Fatalf("%s resident = %v, want %v: s2 was used least recently", id, got, want)
		}
	}
}

// TestEmptyRotationsSessionRestores: a session created with "rotations": []
// (no Galois keys) comes back from an eviction and from a restart, and
// decrypts its ciphertext the same way each time.
func TestEmptyRotationsSessionRestores(t *testing.T) {
	dir := t.TempDir()
	_, tsA := newTestDaemon(t, daemonConfig{StateDir: dir, MaxResident: 1, MaxSessions: 8})
	req := testSessionRequest()
	req.Rotations = []int{}
	if raw := mustJSON(t, req); !bytes.Contains(raw, []byte(`"rotations":[]`)) {
		t.Fatalf("create body %s does not send an empty rotation list", raw)
	}
	sr := createSession(t, tsA.URL, req)
	vals := make([]complex128, sr.Slots)
	for i := range vals {
		vals[i] = complex(0.5*float64(i%3), -0.25)
	}
	ct := encryptValues(t, tsA.URL, sr.ID, vals)
	decrypt := func(base string) []byte {
		t.Helper()
		status, body := doJSON(t, http.MethodPost, base+"/v1/sessions/"+sr.ID+"/decrypt", nil,
			decryptRequest{Ciphertext: ct.Ciphertext}, nil)
		if status != http.StatusOK {
			t.Fatalf("decrypt: status %d: %s", status, body)
		}
		return body
	}
	ref := decrypt(tsA.URL)

	createSession(t, tsA.URL, testSessionRequest()) // evicts sr
	if got := decrypt(tsA.URL); !bytes.Equal(got, ref) {
		t.Fatalf("after evict+restore: %s, want %s", got, ref)
	}
	_, tsB := newTestDaemon(t, daemonConfig{StateDir: dir})
	if got := decrypt(tsB.URL); !bytes.Equal(got, ref) {
		t.Fatalf("after restart: %s, want %s", got, ref)
	}
	if _, sess := readyzSessions(t, tsB.URL); sess.Restored != 1 {
		t.Fatalf("readyz after restart: restored = %d, want 1", sess.Restored)
	}
}

// TestKLSSSessionSurvivesEvictAndRestart: an enable_klss session's .snap
// stores no key — it is the magic, its header and the checksum, like a
// hybrid-only session's — yet a KLSS-pinned eval answers with the same bytes
// before eviction, after an evict and restore, and after a restart on the
// same state dir: each restored context regenerates the session's keys and
// derives its KLSS keys again on its first KLSS op.
func TestKLSSSessionSurvivesEvictAndRestart(t *testing.T) {
	dir := t.TempDir()
	dA, tsA := newTestDaemon(t, daemonConfig{StateDir: dir})
	sr := createSession(t, tsA.URL, testSessionRequest())
	hybridReq := testSessionRequest()
	hybridReq.EnableKLSS = false
	hybridOnly := createSession(t, tsA.URL, hybridReq)

	for _, id := range []string{sr.ID, hybridOnly.ID} {
		snap, err := os.ReadFile(filepath.Join(dir, id+".snap"))
		if err != nil {
			t.Fatal(err)
		}
		if hdrLen := int(binary.LittleEndian.Uint32(snap[8:])); len(snap) != 8+4+hdrLen+sha256.Size {
			t.Fatalf("%s.snap is %d bytes, more than magic, hdrLen, its %d-byte header and the checksum", id, len(snap), hdrLen)
		}
	}

	vals := make([]complex128, sr.Slots)
	for i := range vals {
		vals[i] = complex(0.25*float64(i%7), -0.125*float64(i%5))
	}
	ct := encryptValues(t, tsA.URL, sr.ID, vals)
	prog := evalOf(fast.NewProgram().In("x").
		Mul("t", "x", "x", klss).
		Rotate("r", "t", 1, klss).
		Conjugate("c", "r", klss).
		Add("out", "c", "t").
		Return("out"), ct.Ciphertext)
	eval := func(base string) []byte {
		t.Helper()
		status, body := doJSON(t, http.MethodPost, base+"/v1/sessions/"+sr.ID+"/eval", nil, prog, nil)
		if status != http.StatusOK {
			t.Fatalf("eval: status %d: %s", status, body)
		}
		return body
	}
	ref := eval(tsA.URL)
	evictNow(t, dA, sr.ID)
	if got := eval(tsA.URL); !bytes.Equal(got, ref) {
		t.Fatal("KLSS eval after evict + restore differs from the one before eviction")
	}
	_, tsB := newTestDaemon(t, daemonConfig{StateDir: dir})
	if got := eval(tsB.URL); !bytes.Equal(got, ref) {
		t.Fatal("KLSS eval after a restart differs from the one before eviction")
	}
}

// TestReadyzSessionOccupancy is the satellite regression test: /readyz
// reports registry occupancy against MaxSessions and flips to 503 exactly
// when a session create would be refused.
func TestReadyzSessionOccupancy(t *testing.T) {
	_, ts := newTestDaemon(t, daemonConfig{MaxSessions: 2})

	if status, sess := readyzSessions(t, ts.URL); status != http.StatusOK || sess.Resident != 0 || sess.Max != 2 {
		t.Fatalf("empty daemon: status %d sessions %+v", status, sess)
	}
	createSession(t, ts.URL, testSessionRequest())
	if status, _ := readyzSessions(t, ts.URL); status != http.StatusOK {
		t.Fatalf("one slot free: readyz %d, want 200", status)
	}
	s2 := createSession(t, ts.URL, testSessionRequest())
	status, sess := readyzSessions(t, ts.URL)
	if status != http.StatusServiceUnavailable || sess.Resident != 2 {
		t.Fatalf("full registry: status %d sessions %+v, want 503 resident=2", status, sess)
	}
	// The refusal /readyz predicts:
	if st, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions", nil, testSessionRequest(), nil); st != http.StatusTooManyRequests {
		t.Fatalf("create on full registry: status %d, want 429", st)
	}
	if st, _ := doJSON(t, http.MethodDelete, ts.URL+"/v1/sessions/"+s2.ID, nil, nil, nil); st != http.StatusNoContent {
		t.Fatalf("delete: status %d", st)
	}
	if status, _ := readyzSessions(t, ts.URL); status != http.StatusOK {
		t.Fatalf("after delete: readyz %d, want 200", status)
	}
}

// TestChaosDiskWriteFaultDegrades: with every snapshot write failing the
// daemon degrades instead of erroring — sessions are served resident-only,
// creates still succeed, and the failure is counted.
func TestChaosDiskWriteFaultDegrades(t *testing.T) {
	dir := t.TempDir()
	d, ts := newTestDaemon(t, daemonConfig{StateDir: dir})
	d.store.hook = func(point string) error {
		if strings.HasPrefix(point, "snap.") {
			return fmt.Errorf("injected failure at %s", point)
		}
		return nil
	}
	sr := createSession(t, ts.URL, testSessionRequest())
	if _, err := os.Stat(filepath.Join(dir, sr.ID+".snap")); !os.IsNotExist(err) {
		t.Fatalf("snapshot written despite injected faults (err=%v)", err)
	}
	if d.store.mWriteFailures.Value() == 0 {
		t.Fatal("fastd.store.write_failures did not count the degraded save")
	}
	// The session still serves (resident-only).
	encryptValues(t, ts.URL, sr.ID, make([]complex128, sr.Slots))
}
