package main

// Tests of the restore path's on-disk formats: the framed idempotency
// journal (index-only restore, torn tails, CRC-verified replay, compaction
// only when due), the restore-epoch sidecar, and the startup sweep of crash
// leftovers. The crash-point enumeration lives in crashpoint_test.go.

import (
	"bytes"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/fastfhe/fast/internal/obs"
)

// syncBuffer is a goroutine-safe log sink.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func testStore(t *testing.T, dir string) *sessionStore {
	t.Helper()
	st, err := openSessionStore(dir, nil, obs.NewRegistry(), obs.NewLogger(io.Discard, slog.LevelInfo))
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// journalFrames indexes a session's on-disk journal the way a restore does.
func journalFrames(t *testing.T, dir, id string) []journalFrame {
	t.Helper()
	st := testStore(t, dir)
	return st.indexJournal(st.journal(id))
}

// residentSession returns the session object if (and only if) it is resident
// — unlike resolve it never restores.
func residentSession(d *daemon, id string) *session {
	return d.sessions.Acquire(id).Payload
}

// evictNow pushes a session out to disk the way LRU pressure would,
// restoring it first if it is not resident.
func evictNow(t *testing.T, d *daemon, id string) {
	t.Helper()
	if _, _, err := d.resolve(id); err != nil {
		t.Fatal(err)
	}
	if !d.evictSession(d.sessions.Acquire(id)) {
		t.Fatalf("evict %s failed", id)
	}
}

// keyedEncrypt posts an idempotency-keyed encrypt and returns the response
// bytes and whether the daemon marked them as a replay.
func keyedEncrypt(t *testing.T, base, id, key string, vals []cnum) (body []byte, replayed bool) {
	t.Helper()
	resp := idemProbe(t, base, id, key, vals)
	defer resp.Body.Close()
	return readAll(t, resp.Body), resp.Header.Get("Idempotency-Replayed") == "true"
}

func mustAppend(t *testing.T, st *sessionStore, j *journal, key string, body []byte) {
	t.Helper()
	if _, _, err := st.appendFrame(j, key, http.StatusOK, body); err != nil {
		t.Fatalf("append %s: %v", key, err)
	}
}

// TestJournalTornTailEveryOffset cuts the journal at every byte offset of its
// last frame — every state a crash mid-append can leave — and asserts the
// restore walk drops exactly that frame, truncates the file back to the last
// good frame boundary, and that an append after the restore lands on that
// boundary (a later restore sees every frame, none hidden behind junk).
func TestJournalTornTailEveryOffset(t *testing.T) {
	dir := t.TempDir()
	st := testStore(t, dir)
	j := st.journal("s1")
	bodies := [][]byte{[]byte(`{"a":1}` + "\n"), bytes.Repeat([]byte("b"), 300), []byte(`{"ciphertext":"zzzz"}` + "\n")}
	for i, b := range bodies {
		mustAppend(t, st, j, fmt.Sprintf("k%d", i), b)
	}
	whole, err := os.ReadFile(j.path)
	if err != nil {
		t.Fatal(err)
	}
	frames := journalFrames(t, dir, "s1")
	if len(frames) != 3 || int64(len(whole)) != j.size {
		t.Fatalf("fixture: %d frames, %d bytes, journal size %d", len(frames), len(whole), j.size)
	}
	lastOff := frames[2].off

	check := func(name string, content []byte) {
		t.Helper()
		if err := os.WriteFile(j.path, content, 0o644); err != nil {
			t.Fatal(err)
		}
		j2 := &journal{id: "s1", path: j.path}
		got := st.indexJournal(j2)
		if len(got) != 2 || got[0].key != "k0" || got[1].key != "k1" {
			t.Fatalf("%s: indexed %+v, want k0,k1", name, got)
		}
		fi, err := os.Stat(j.path)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() != lastOff || j2.size != lastOff || j2.frames != 2 {
			t.Fatalf("%s: file %d bytes, journal size %d frames %d; want truncated to %d with 2 frames",
				name, fi.Size(), j2.size, j2.frames, lastOff)
		}
		mustAppend(t, st, j2, "after", []byte("new"))
		again := st.indexJournal(&journal{id: "s1", path: j.path})
		if len(again) != 3 || again[2].key != "after" || again[2].off != lastOff {
			t.Fatalf("%s: after re-append indexed %+v, want k0,k1,after@%d", name, again, lastOff)
		}
		e := &idemEntry{key: "k1", status: http.StatusOK, off: again[1].off, n: again[1].n}
		if body, ok := st.readBody(j2, e); !ok || !bytes.Equal(body, bodies[1]) {
			t.Fatalf("%s: neighbour k1 no longer replays (ok=%v)", name, ok)
		}
	}
	before := st.mTornTruncated.Value()
	for cut := lastOff + 1; cut < int64(len(whole)); cut++ {
		check(fmt.Sprintf("cut@%d", cut), whole[:cut])
	}
	if got, want := st.mTornTruncated.Value()-before, uint64(int64(len(whole))-lastOff-1); got != want {
		t.Fatalf("fastd.idem.torn_truncated counted %d, want %d", got, want)
	}
	// Full-length last frame with damaged content: size was extended, the
	// data never made it (power loss) — only its CRC can tell.
	for _, at := range []int64{lastOff + 5, lastOff + frameHeaderLen + 1, int64(len(whole)) - 1} {
		damaged := append([]byte(nil), whole...)
		damaged[at] ^= 0x10
		check(fmt.Sprintf("flip@%d", at), damaged)
	}
}

// TestJournalFlippedBitMiddleFrame: a bit flipped in a middle frame's body is
// invisible to the index-only restore and caught when — only when — that key
// is retried: it re-executes (counted, never served), its neighbours replay
// byte for byte, and the next evict compacts the dead frame away.
func TestJournalFlippedBitMiddleFrame(t *testing.T) {
	dir := t.TempDir()
	d, ts := newTestDaemon(t, daemonConfig{StateDir: dir})
	sr := createSession(t, ts.URL, testSessionRequest())
	vals := fromComplex([]complex128{1, 2, 3, 4})
	var bodies [3][]byte
	for i := range bodies {
		bodies[i], _ = keyedEncrypt(t, ts.URL, sr.ID, fmt.Sprintf("k%d", i), vals)
	}
	evictNow(t, d, sr.ID)
	if got := d.store.mCompactions.Value(); got != 0 {
		t.Fatalf("evict of a journal that equals its table compacted %d times", got)
	}

	frames := journalFrames(t, dir, sr.ID)
	if len(frames) != 3 {
		t.Fatalf("journal holds %d frames, want 3", len(frames))
	}
	path := filepath.Join(dir, sr.ID+".idem")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[frames[1].off+int64(frames[1].n)-10] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	for _, i := range []int{0, 2} {
		body, replayed := keyedEncrypt(t, ts.URL, sr.ID, fmt.Sprintf("k%d", i), vals)
		if !replayed || !bytes.Equal(body, bodies[i]) {
			t.Fatalf("k%d: neighbour of the damaged frame did not replay byte-identically (replayed=%v)", i, replayed)
		}
	}
	body, replayed := keyedEncrypt(t, ts.URL, sr.ID, "k1", vals)
	if replayed {
		t.Fatal("a body that fails its CRC was served as a replay")
	}
	if bytes.Equal(body, bodies[1]) {
		t.Fatal("re-executed encrypt returned the pre-restore bytes: it did not run on the new epoch")
	}
	if got := d.store.mCRCMismatch.Value(); got != 1 {
		t.Fatalf("fastd.idem.crc_mismatch = %d, want 1", got)
	}
	// The re-execution is the key's record from now on.
	again, replayed := keyedEncrypt(t, ts.URL, sr.ID, "k1", vals)
	if !replayed || !bytes.Equal(again, body) {
		t.Fatal("re-executed key does not replay its new response")
	}
	// 4 frames on disk for 3 keys: now — and only now — compaction is due.
	evictNow(t, d, sr.ID)
	if got := d.store.mCompactions.Value(); got != 1 {
		t.Fatalf("fastd.idem.compactions = %d after evicting a journal with a dead frame, want 1", got)
	}
	if got := journalFrames(t, dir, sr.ID); len(got) != 3 {
		t.Fatalf("compacted journal holds %d frames, want 3", len(got))
	}
	for i, want := range [][]byte{bodies[0], body, bodies[2]} {
		got, replayed := keyedEncrypt(t, ts.URL, sr.ID, fmt.Sprintf("k%d", i), vals)
		if !replayed || !bytes.Equal(got, want) {
			t.Fatalf("k%d does not replay after frame-copy compaction (replayed=%v)", i, replayed)
		}
	}
}

// TestEpochSidecarCorruptIs410: a damaged or truncated .epoch tombstones the
// session exactly like a corrupt snapshot. Falling back to the snapshot
// header's epoch would silently replay encryption randomness.
func TestEpochSidecarCorruptIs410(t *testing.T) {
	for name, damage := range map[string]func([]byte) []byte{
		"bitflip":   func(b []byte) []byte { b[3] ^= 0x80; return b },
		"truncated": func(b []byte) []byte { return b[:7] },
		"empty":     func(b []byte) []byte { return nil },
		"zeroed":    func(b []byte) []byte { return make([]byte, len(b)) },
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			d, ts := newTestDaemon(t, daemonConfig{StateDir: dir})
			sr := createSession(t, ts.URL, testSessionRequest())
			evictNow(t, d, sr.ID)
			encryptValues(t, ts.URL, sr.ID, make([]complex128, 4)) // restore #1 writes the sidecar
			evictNow(t, d, sr.ID)

			path := filepath.Join(dir, sr.ID+".epoch")
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("restore left no epoch sidecar: %v", err)
			}
			if err := os.WriteFile(path, damage(raw), 0o644); err != nil {
				t.Fatal(err)
			}
			status, body := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions/"+sr.ID+"/encrypt", nil,
				encryptRequest{Values: fromComplex(make([]complex128, 4))}, nil)
			if status != http.StatusGone {
				t.Fatalf("request against a corrupt epoch sidecar: status %d (%s), want 410", status, body)
			}
			if _, sess := readyzSessions(t, ts.URL); sess.Corrupt != 1 {
				t.Fatalf("readyz corrupt = %d, want 1", sess.Corrupt)
			}
		})
	}
}

// TestLegacyJournalDiscarded: a pre-framing JSON-lines journal is logged,
// discarded and replaced. The session and its keys restore normally; only
// the dedup window of the pre-upgrade state dir is lost.
func TestLegacyJournalDiscarded(t *testing.T) {
	dir := t.TempDir()
	var logs syncBuffer
	logger := obs.NewLogger(&logs, slog.LevelInfo)
	_, tsA := newTestDaemon(t, daemonConfig{StateDir: dir, Logger: logger})
	sr := createSession(t, tsA.URL, testSessionRequest())
	vals := fromComplex([]complex128{1, 2, 3, 4})
	ct := encryptValues(t, tsA.URL, sr.ID, toComplex(vals))

	legacy := `{"key":"old","status":200,"body":"eyJjaXBoZXJ0ZXh0IjoiQUFBQSJ9Cg=="}` + "\n"
	path := filepath.Join(dir, sr.ID+".idem")
	if err := os.WriteFile(path, []byte(legacy), 0o644); err != nil {
		t.Fatal(err)
	}

	_, tsB := newTestDaemon(t, daemonConfig{StateDir: dir, Logger: logger})
	if _, replayed := keyedEncrypt(t, tsB.URL, sr.ID, "old", vals); replayed {
		t.Fatal("a key from the legacy journal replayed: a second decoder is being carried")
	}
	if !strings.Contains(logs.String(), "no frame magic") {
		t.Fatalf("discarding the legacy journal left no log line:\n%s", logs.String())
	}
	got := decryptValues(t, tsB.URL, sr.ID, ct.Ciphertext)
	if abs2(got[1]-2) > 1e-3 {
		t.Fatalf("session did not restore normally next to a legacy journal: slot 1 = %v", got[1])
	}
	raw, err := os.ReadFile(path)
	if err != nil || !bytes.HasPrefix(raw, journalMagic[:]) {
		t.Fatalf("legacy journal was not replaced by a framed one (err=%v, %d bytes)", err, len(raw))
	}
	if frames := journalFrames(t, dir, sr.ID); len(frames) != 1 || frames[0].key != "old" {
		t.Fatalf("new journal frames = %+v, want the one re-executed key", frames)
	}
}

// TestScanSweepsCrashLeftovers: temp files of interrupted atomic writes are
// deleted at startup, and so are journals and epochs whose snapshot is gone
// — a new session that reuses the ID must not inherit foreign replay records
// or a foreign epoch.
func TestScanSweepsCrashLeftovers(t *testing.T) {
	dir := t.TempDir()
	_, tsA := newTestDaemon(t, daemonConfig{StateDir: dir})
	s1 := createSession(t, tsA.URL, testSessionRequest())
	vals := fromComplex([]complex128{1, 2, 3, 4})
	keep, _ := keyedEncrypt(t, tsA.URL, s1.ID, "keep", vals)

	// What a SIGKILL inside saveSnapshot / compaction / saveEpoch leaves:
	for _, name := range []string{s1.ID + ".snap.tmp.123", "s9.snap.tmp.77", s1.ID + ".idem.tmp.5", s1.ID + ".epoch.tmp.9"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("partial"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// What a crash between the unlinks of remove() leaves for "s2" — the ID
	// the next create will get.
	st := testStore(t, dir)
	mustAppend(t, st, st.journal("s2"), "foreign", []byte(`{"ciphertext":"not yours"}`))
	if err := st.saveEpoch("s2", 41); err != nil {
		t.Fatal(err)
	}

	dB, tsB := newTestDaemon(t, daemonConfig{StateDir: dir})
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if got, want := strings.Join(names, " "), s1.ID+".idem "+s1.ID+".snap"; got != want {
		t.Fatalf("state dir after startup sweep: %q, want %q", got, want)
	}

	s2 := createSession(t, tsB.URL, testSessionRequest())
	if s2.ID != "s2" {
		t.Fatalf("next session ID = %s, want the reused s2", s2.ID)
	}
	if _, replayed := keyedEncrypt(t, tsB.URL, s2.ID, "foreign", vals); replayed {
		t.Fatal("a new session inherited an orphan journal's replay records")
	}
	evictNow(t, dB, s2.ID)
	encryptValues(t, tsB.URL, s2.ID, make([]complex128, 4))
	if got := residentSession(dB, s2.ID).meta.Restores; got != 1 {
		t.Fatalf("new session's first restore landed on epoch %d: it inherited an orphan sidecar", got)
	}
	// The surviving session's own journal was left alone.
	if body, replayed := keyedEncrypt(t, tsB.URL, s1.ID, "keep", vals); !replayed || !bytes.Equal(body, keep) {
		t.Fatal("the sweep damaged a live session's journal")
	}
}

// TestRestoreVerifiesSnapshotChecksumEveryRestore: the snapshot is immutable
// across restores (same inode, same bytes — only the sidecar moves), and its
// full SHA-256 is still verified on every restore, not just the first.
func TestRestoreVerifiesSnapshotChecksumEveryRestore(t *testing.T) {
	dir := t.TempDir()
	d, ts := newTestDaemon(t, daemonConfig{StateDir: dir})
	sr := createSession(t, ts.URL, testSessionRequest())
	path := filepath.Join(dir, sr.ID+".snap")
	created, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	fi0, _ := os.Stat(path)
	for i := 1; i <= 3; i++ {
		evictNow(t, d, sr.ID)
		encryptValues(t, ts.URL, sr.ID, make([]complex128, 4))
		if got := residentSession(d, sr.ID).meta.Restores; got != uint64(i) {
			t.Fatalf("restore %d landed on epoch %d", i, got)
		}
	}
	fi1, _ := os.Stat(path)
	now, _ := os.ReadFile(path)
	if !os.SameFile(fi0, fi1) || !bytes.Equal(created, now) {
		t.Fatal("a clean restore rewrote the snapshot: the key payload must be written once")
	}
	evictNow(t, d, sr.ID)
	now[len(now)/3] ^= 0x04
	if err := os.WriteFile(path, now, 0o644); err != nil {
		t.Fatal(err)
	}
	status, body := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions/"+sr.ID+"/encrypt", nil,
		encryptRequest{Values: fromComplex(make([]complex128, 4))}, nil)
	if status != http.StatusGone {
		t.Fatalf("4th restore of a snapshot damaged after 3 good ones: status %d (%s), want 410", status, body)
	}
}

// TestEpochWriteFaultDegrades: a sidecar write that fails (twice) follows the
// store's degrade policy — counted, the session serves marked dirty, and the
// next evict re-persists it whole, so the epoch it served under is durable
// in the snapshot header and the restore after that lands strictly above it.
func TestEpochWriteFaultDegrades(t *testing.T) {
	dir := t.TempDir()
	d, ts := newTestDaemon(t, daemonConfig{StateDir: dir})
	sr := createSession(t, ts.URL, testSessionRequest())
	evictNow(t, d, sr.ID)

	d.store.hook = func(point string) error {
		if point == "epoch.rename" {
			return fmt.Errorf("injected failure at %s", point)
		}
		return nil
	}
	encryptValues(t, ts.URL, sr.ID, make([]complex128, 4))
	d.store.hook = nil
	if v := d.sessions.Acquire(sr.ID); v.Payload == nil || v.Durable || v.Payload.meta.Restores != 1 {
		t.Fatalf("after a failed epoch write: session %+v, want resident, not durable, epoch 1", v)
	}
	if got := d.store.mWriteFailures.Value(); got != 1 {
		t.Fatalf("fastd.store.write_failures = %d, want 1", got)
	}
	if _, err := os.Stat(filepath.Join(dir, sr.ID+".epoch")); !os.IsNotExist(err) {
		t.Fatalf("failed epoch write left a sidecar behind (err=%v)", err)
	}
	evictNow(t, d, sr.ID) // dirty: re-saves the snapshot, header epoch 1
	encryptValues(t, ts.URL, sr.ID, make([]complex128, 4))
	if got := residentSession(d, sr.ID).meta.Restores; got != 2 {
		t.Fatalf("restore after a degraded one landed on epoch %d, want 2", got)
	}
}

// TestDeleteDuringRestoreStaysDeleted: a DELETE that lands while a restore of
// the same session is reading its files must win. The restore's result is
// discarded — publishing it would resurrect a session with no snapshot on
// disk, and with its MaxSessions slot already given back.
func TestDeleteDuringRestoreStaysDeleted(t *testing.T) {
	dir := t.TempDir()
	d, ts := newTestDaemon(t, daemonConfig{StateDir: dir, MaxSessions: 2})
	sr := createSession(t, ts.URL, testSessionRequest())
	evictNow(t, d, sr.ID)

	held, release := holdStoreAt(d, "epoch.create-tmp") // the restore's last step before it publishes
	encrypt := encryptRequest{Values: fromComplex(make([]complex128, 4))}
	restored := make(chan int, 1)
	go func() { restored <- postStatus(ts.URL+"/v1/sessions/"+sr.ID+"/encrypt", encrypt) }()
	<-held
	if status, raw := doJSON(t, http.MethodDelete, ts.URL+"/v1/sessions/"+sr.ID, nil, nil, nil); status != http.StatusNoContent {
		t.Fatalf("delete during restore: status %d: %s", status, raw)
	}
	close(release)
	if status := <-restored; status != http.StatusNotFound {
		t.Fatalf("the request whose restore raced the delete: status %d, want 404", status)
	}
	if status, raw := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions/"+sr.ID+"/encrypt", nil, encrypt, nil); status != http.StatusNotFound {
		t.Fatalf("request after the delete: status %d (%s), want 404: the restore resurrected the session", status, raw)
	}
	if _, sess := readyzSessions(t, ts.URL); sess.Resident != 0 || sess.Persisted != 0 {
		t.Fatalf("after the delete: %+v, want nothing resident or persisted", sess)
	}
	if left, _ := filepath.Glob(filepath.Join(dir, sr.ID+".*")); len(left) != 0 {
		t.Fatalf("deleted session left files behind: %v", left)
	}
	// The slot came back exactly once: the limit admits two more, not three.
	createSession(t, ts.URL, testSessionRequest())
	createSession(t, ts.URL, testSessionRequest())
	if status, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions", nil, testSessionRequest(), nil); status != http.StatusTooManyRequests {
		t.Fatalf("create past the limit: status %d, want 429", status)
	}
	if _, sess := readyzSessions(t, ts.URL); sess.Resident+sess.Persisted != 2 {
		t.Fatalf("at the limit of 2 the daemon holds %+v", sess)
	}
}

// holdStoreAt makes the daemon's next durability write stop at the named
// boundary. held is closed when a write gets there; it proceeds once the
// caller closes release.
func holdStoreAt(d *daemon, point string) (held, release chan struct{}) {
	held, release = make(chan struct{}), make(chan struct{})
	var once sync.Once
	d.store.hook = func(p string) error {
		if p == point {
			once.Do(func() {
				close(held)
				<-release
			})
		}
		return nil
	}
	return held, release
}

// holdAt runs op against a daemon whose store stops at a durability boundary
// for a while, and asserts op does not complete while it is held there —
// whatever op hands its caller is released only after that boundary (and, the
// hook firing before the step it names, only after the step itself).
func holdAt(t *testing.T, d *daemon, point string, op func()) {
	t.Helper()
	held, release := holdStoreAt(d, point)
	var returned atomic.Bool
	early, quit := make(chan bool, 1), make(chan struct{})
	go func() {
		select {
		case <-held:
			time.Sleep(100 * time.Millisecond) // time for a too-early release to show
			early <- returned.Load()
			close(release)
		case <-quit:
		}
	}()
	op()
	returned.Store(true)
	close(quit)
	select {
	case tooEarly := <-early:
		if tooEarly {
			t.Fatalf("the operation completed while its write was still held at %s", point)
		}
	default:
		t.Fatalf("the operation completed without ever reaching %s", point)
	}
}

// TestJournalRecordDurableBeforeRelease: the journal frame is written and
// fsync'd before the response it records is released — while the append is
// held at its fsync boundary the client has seen nothing, and the response
// the client eventually sees is the one the frame holds.
func TestJournalRecordDurableBeforeRelease(t *testing.T) {
	dir := t.TempDir()
	d, ts := newTestDaemon(t, daemonConfig{StateDir: dir})
	sr := createSession(t, ts.URL, testSessionRequest())
	var body []byte
	holdAt(t, d, "journal.fsync", func() {
		body, _ = keyedEncrypt(t, ts.URL, sr.ID, "k", fromComplex([]complex128{1, 2, 3, 4}))
	})
	frames := journalFrames(t, dir, sr.ID)
	if len(frames) != 1 || frames[0].key != "k" {
		t.Fatalf("journal after release: %+v", frames)
	}
	e := &idemEntry{key: "k", status: http.StatusOK, off: frames[0].off, n: frames[0].n}
	if got, ok := d.store.readBody(d.store.journal(sr.ID), e); !ok || !bytes.Equal(got, body) {
		t.Fatal("journaled frame does not hold the released response bytes")
	}
}

// TestEpochDurableBeforeFirstUse: a restored session's epoch is on disk —
// through the rename's directory fsync — before the restored Context serves
// the request that faulted it in, so no randomness of an epoch is ever drawn
// that a crash could make the next restore draw again.
func TestEpochDurableBeforeFirstUse(t *testing.T) {
	dir := t.TempDir()
	d, ts := newTestDaemon(t, daemonConfig{StateDir: dir})
	sr := createSession(t, ts.URL, testSessionRequest())
	evictNow(t, d, sr.ID)
	holdAt(t, d, "epoch.dir-fsync", func() {
		encryptValues(t, ts.URL, sr.ID, make([]complex128, 4))
	})
	if epoch, err := d.store.loadEpoch(sr.ID); err != nil || epoch != 1 {
		t.Fatalf("sidecar after the first restore: epoch %d, err %v; want 1", epoch, err)
	}
}

// TestRestorePhasesSumToRestore: the four fastd.restore.*_ns histograms
// partition restoreSession — their sums account for its wall time to within
// 15 % — and fastd.evict_ns times the evict beside it.
func TestRestorePhasesSumToRestore(t *testing.T) {
	dir := t.TempDir()
	d, ts := newTestDaemon(t, daemonConfig{StateDir: dir})
	sr := createSession(t, ts.URL, testSessionRequest())
	vals := fromComplex([]complex128{1, 2, 3, 4})
	for i := 0; i < 8; i++ {
		keyedEncrypt(t, ts.URL, sr.ID, fmt.Sprintf("k%d", i), vals)
	}
	st := d.store
	phaseSum := func() (sum int64) {
		for _, h := range []*obs.Histogram{st.mSnapshotLoad, st.mExpand, st.mJournalIndex, st.mEpochWrite} {
			sum += h.Sum()
		}
		return sum
	}
	const rounds = 5
	var wall time.Duration
	var phases int64
	for i := 0; i < rounds; i++ {
		evictNow(t, d, sr.ID)
		before, t0 := phaseSum(), time.Now()
		s, _, err := d.restoreSession(d.shards[0], sr.ID)
		wall += time.Since(t0)
		phases += phaseSum() - before
		if err != nil || len(s.idem.completedEntries()) != 8 {
			t.Fatalf("restore %d: err=%v", i, err)
		}
		encryptValues(t, ts.URL, sr.ID, make([]complex128, 4)) // make it resident again
	}
	for _, h := range []*obs.Histogram{st.mSnapshotLoad, st.mExpand, st.mJournalIndex, st.mEpochWrite} {
		if h.Count() != 2*rounds { // the timed restore + the one resolve() ran
			t.Fatalf("a fastd.restore.*_ns histogram has %d observations, want %d", h.Count(), 2*rounds)
		}
	}
	if ratio := float64(phases) / float64(wall); ratio < 0.85 || ratio > 1.15 {
		t.Fatalf("restore phases sum to %.0f%% of the restore wall time, want within 15%%", 100*ratio)
	}
	if st.mEvict.Count() != rounds {
		t.Fatalf("fastd.evict_ns has %d observations, want %d", st.mEvict.Count(), rounds)
	}
}
