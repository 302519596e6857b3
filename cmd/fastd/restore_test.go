package main

// Tests of the restore path's on-disk state: the snapshot a restore rewrites
// with its epoch, the files earlier builds left that are not read, the
// startup sweep of crash leftovers, durability-before-release, DELETE against
// a write in flight and the restore phase timings. The idempotency ring has
// idem_test.go, the crash-point enumeration crashpoint_test.go.

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash/crc32"
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

	fast "github.com/fastfhe/fast"
	"github.com/fastfhe/fast/internal/obs"
	sessreg "github.com/fastfhe/fast/internal/session"
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
	st, err := openSessionStore(dir, obs.NewRegistry(), obs.NewLogger(io.Discard, slog.LevelInfo))
	if err != nil {
		t.Fatal(err)
	}
	return st
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

// snapEpoch is the restore epoch in the header of a session's .snap.
func snapEpoch(t *testing.T, dir, id string) uint64 {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, id+".snap"))
	if err != nil {
		t.Fatal(err)
	}
	snap, err := fast.DecodeSessionSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	return snap.Meta.Restores
}

// legacySidecar is an epoch sidecar as builds before the header-only
// snapshot wrote it: the little-endian counter and its CRC-32C.
func legacySidecar(epoch uint64) []byte {
	b := binary.LittleEndian.AppendUint64(nil, epoch)
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, crc32c))
}

// TestLegacySnapshotIs410: a .snap of any format version but the current
// one — the key-carrying "FASTSNP\x01" earlier builds wrote, or a version
// this build does not know — is refused like any corrupt snapshot: 410 with
// the corrupt_snapshot outcome, counted on /readyz, and the file stays on
// disk untouched.
func TestLegacySnapshotIs410(t *testing.T) {
	v1, err := os.ReadFile(filepath.Join("..", "..", "testdata", "snapshot_v1.snap"))
	if err != nil {
		t.Fatal(err)
	}
	fctx, err := fast.NewContext(fast.ContextConfig{LogN: 4, Levels: 2, LogScale: 30, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	var v3 bytes.Buffer
	if err := fctx.WriteSessionSnapshot(&v3, fast.SessionMeta{ID: "s1"}); err != nil {
		t.Fatal(err)
	}
	body := v3.Bytes()[:v3.Len()-sha256.Size]
	body[7] = 3
	sum := sha256.Sum256(body)
	for name, file := range map[string][]byte{"version=1": v1, "version=3": append(body, sum[:]...)} {
		t.Run(name, func(t *testing.T) {
			const id = "s1" // the ID in the file's header
			dir := t.TempDir()
			path := filepath.Join(dir, id+".snap")
			if err := os.WriteFile(path, file, 0o644); err != nil {
				t.Fatal(err)
			}
			var log syncBuffer
			_, ts := newTestDaemon(t, daemonConfig{StateDir: dir, Logger: obs.NewLogger(&log, slog.LevelInfo)})
			status, body := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions/"+id+"/encrypt", nil,
				encryptRequest{Values: fromComplex(make([]complex128, 4))}, nil)
			if version := "version " + name[len("version="):]; status != http.StatusGone || !strings.Contains(string(body), version) {
				t.Fatalf("request against a snapshot of another version: status %d (%s), want 410 naming %s", status, body, version)
			}
			if !strings.Contains(log.String(), `"outcome":"corrupt_snapshot"`) {
				t.Fatalf("access log has no corrupt_snapshot outcome:\n%s", log.String())
			}
			if _, sess := readyzSessions(t, ts.URL); sess.Corrupt != 1 {
				t.Fatalf("readyz corrupt = %d, want 1", sess.Corrupt)
			}
			if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, file) {
				t.Fatalf("the refused file did not stay on disk as it was (err=%v, %d bytes)", err, len(got))
			}
		})
	}
}

// TestEpochSidecarIgnored: an .epoch sidecar an earlier build left is not
// read, swept or unlinked. A .snap whose header holds epoch 3, beside a
// sidecar holding 9, restores on epoch 4; the sidecar, and an orphan one with
// no snapshot, survive the startup scan, the restore and the session's
// DELETE byte for byte.
func TestEpochSidecarIgnored(t *testing.T) {
	dir := t.TempDir()
	_, tsA := newTestDaemon(t, daemonConfig{StateDir: dir})
	id := createSession(t, tsA.URL, testSessionRequest()).ID

	// Rewrite the session's .snap as one whose header says epoch 3.
	path := filepath.Join(dir, id+".snap")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := fast.DecodeSessionSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	snap.Meta.Restores = 3
	fctx, err := snap.Restore()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := fctx.WriteSessionSnapshot(&buf, snap.Meta); err != nil {
		t.Fatal(err)
	}
	sidecars := map[string][]byte{id + ".epoch": legacySidecar(9), "s9.epoch": legacySidecar(41)}
	files := map[string][]byte{id + ".snap": buf.Bytes()}
	for name, b := range sidecars {
		files[name] = b
	}
	for name, b := range files {
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	sidecarsIntact := func(when string) {
		t.Helper()
		for name, want := range sidecars {
			if got, err := os.ReadFile(filepath.Join(dir, name)); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("%s: %s is not as it was (err=%v)", when, name, err)
			}
		}
	}

	dB, tsB := newTestDaemon(t, daemonConfig{StateDir: dir})
	sidecarsIntact("after the startup scan")
	encryptValues(t, tsB.URL, id, make([]complex128, 4))
	if got := residentSession(dB, id).meta.Restores; got != 4 {
		t.Fatalf("restored on epoch %d, want 4: 1 + the header's 3", got)
	}
	if got := snapEpoch(t, dir, id); got != 4 {
		t.Fatalf("the rewritten .snap holds epoch %d, want 4", got)
	}
	sidecarsIntact("after the restore")
	if st, _ := doJSON(t, http.MethodDelete, tsB.URL+"/v1/sessions/"+id, nil, nil, nil); st != http.StatusNoContent {
		t.Fatalf("delete: status %d", st)
	}
	sidecarsIntact("after the DELETE")
}

// TestScanSweepsCrashLeftovers: temp files of interrupted atomic writes are
// deleted at startup, and so are rings whose snapshot is gone — a new
// session that reuses the ID must not inherit foreign replay records.
func TestScanSweepsCrashLeftovers(t *testing.T) {
	dir := t.TempDir()
	_, tsA := newTestDaemon(t, daemonConfig{StateDir: dir})
	s1 := createSession(t, tsA.URL, testSessionRequest())
	ct := encryptValues(t, tsA.URL, s1.ID, []complex128{1, 2, 3, 4}).Ciphertext
	keep, _ := keyedEval(t, tsA.URL, s1.ID, "keep", ct)

	// What a SIGKILL inside saveSnapshot leaves:
	for _, name := range []string{s1.ID + ".snap.tmp.123", "s9.snap.tmp.77", s1.ID + ".idem.tmp.5"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("partial"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// What a crash between the unlinks of remove() leaves for "s2" — the ID
	// the next create will get. Inherited, the orphan record would replay
	// "foreign": s2 has s1's config and seed, so this request, these bytes.
	st := testStore(t, dir)
	orphan := idemRecord{seq: 1, key: sha256.Sum256([]byte("foreign")), req: sha256.Sum256(mustJSON(t, idemEval(ct))),
		status: http.StatusOK, resp: crc32.Checksum(keep, crc32c)}
	if err := st.writeIdem("s2", 0, &orphan); err != nil {
		t.Fatal(err)
	}

	_, tsB := newTestDaemon(t, daemonConfig{StateDir: dir})
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
	if _, replayed := keyedEval(t, tsB.URL, s2.ID, "foreign", ct); replayed {
		t.Fatal("a new session inherited an orphan ring's replay records")
	}
	// The surviving session's own ring was left alone.
	if body, replayed := keyedEval(t, tsB.URL, s1.ID, "keep", ct); !replayed || !bytes.Equal(body, keep) {
		t.Fatal("the sweep damaged a live session's ring")
	}
}

// TestRestoreVerifiesSnapshotChecksumEveryRestore: every restore rewrites
// the snapshot — header-sized, with its epoch in the header — and its full
// SHA-256 is still verified on every restore, not just the first.
func TestRestoreVerifiesSnapshotChecksumEveryRestore(t *testing.T) {
	dir := t.TempDir()
	d, ts := newTestDaemon(t, daemonConfig{StateDir: dir})
	sr := createSession(t, ts.URL, testSessionRequest())
	path := filepath.Join(dir, sr.ID+".snap")
	for i := 1; i <= 3; i++ {
		evictNow(t, d, sr.ID)
		encryptValues(t, ts.URL, sr.ID, make([]complex128, 4))
		if got := residentSession(d, sr.ID).meta.Restores; got != uint64(i) {
			t.Fatalf("restore %d landed on epoch %d", i, got)
		}
		if got := snapEpoch(t, dir, sr.ID); got != uint64(i) {
			t.Fatalf("after restore %d the .snap holds epoch %d", i, got)
		}
	}
	now, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(now) >= 1024 {
		t.Fatalf("the .snap is %d bytes: it holds more than its header", len(now))
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

// TestEpochWriteFaultRefuses: a restore whose epoch write fails (twice) does
// not serve. Serving on epoch 1 while the .snap still holds 0 would let a
// crash before the next evict restore onto epoch 1 again and replay the
// encryption randomness clients already saw. The request is a 503 with
// Retry-After, the session stays persisted (no tombstone) with its .snap
// untouched, and once the disk takes writes again the next request restores
// on epoch 1 and serves.
func TestEpochWriteFaultRefuses(t *testing.T) {
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
	encrypt := encryptRequest{Values: fromComplex(make([]complex128, 4))}
	status, body := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions/"+sr.ID+"/encrypt", nil, encrypt, nil)
	d.store.hook = nil
	if status != http.StatusServiceUnavailable {
		t.Fatalf("encrypt whose restore could not write its epoch: status %d (%s), want 503", status, body)
	}
	if v := d.sessions.Acquire(sr.ID); v.Payload != nil || v.State != sessreg.Persisted {
		t.Fatalf("after a failed epoch write: session %+v, want persisted and not resident", v)
	}
	if got := d.store.mWriteFailures.Value(); got != 1 {
		t.Fatalf("fastd.store.write_failures = %d, want 1", got)
	}
	if got := snapEpoch(t, dir, sr.ID); got != 0 {
		t.Fatalf("a failed epoch write changed the .snap: it holds epoch %d", got)
	}
	encryptValues(t, ts.URL, sr.ID, make([]complex128, 4))
	if got := residentSession(d, sr.ID).meta.Restores; got != 1 {
		t.Fatalf("restore after the refused one landed on epoch %d, want 1", got)
	}
	if got := snapEpoch(t, dir, sr.ID); got != 1 {
		t.Fatalf("the served restore left epoch %d in the .snap, want 1", got)
	}
}

// TestDeleteDuringRestoreStaysDeleted: a DELETE that lands while a restore of
// the same session is writing its snapshot must win. It waits for that write,
// then unlinks what it wrote, and the restore's result is discarded —
// publishing it would resurrect a session with no snapshot on disk, and with
// its MaxSessions slot already given back.
func TestDeleteDuringRestoreStaysDeleted(t *testing.T) {
	dir := t.TempDir()
	d, ts := newTestDaemon(t, daemonConfig{StateDir: dir, MaxSessions: 2})
	sr := createSession(t, ts.URL, testSessionRequest())
	evictNow(t, d, sr.ID)

	held, release := holdStoreAt(d, "epoch.create-tmp") // the restore's last step before it publishes
	encrypt := encryptRequest{Values: fromComplex(make([]complex128, 4))}
	restored, deleted := make(chan int, 1), make(chan int, 1)
	go func() { restored <- postStatus(ts.URL+"/v1/sessions/"+sr.ID+"/encrypt", encrypt) }()
	<-held
	go func() { deleted <- deleteStatus(ts.URL, sr.ID) }()
	waitRegistryDeleted(t, d, sr.ID)
	close(release)
	if status := <-deleted; status != http.StatusNoContent {
		t.Fatalf("delete during restore: status %d", status)
	}
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

// deleteStatus sends DELETE for a session and returns the status.
func deleteStatus(base, id string) int {
	req, err := http.NewRequest(http.MethodDelete, base+"/v1/sessions/"+id, nil)
	if err != nil {
		return 0
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0
	}
	resp.Body.Close()
	return resp.StatusCode
}

// waitRegistryDeleted waits until a DELETE in flight has taken id out of the
// registry — the step a DELETE takes before it drops the ID's write guard.
func waitRegistryDeleted(t *testing.T, d *daemon, id string) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); d.sessions.Acquire(id).State != sessreg.Absent; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("DELETE of %s never reached the registry", id)
		}
	}
}

// TestNoSnapWriteAfterDelete: a .snap write in flight when a DELETE arrives
// never lands after the DELETE's unlinks — the DELETE waits for it on the
// ID's write guard — so a restart on the same state dir does not bring the
// session back. Two writes: the evict of a session whose create-time write
// failed, held at snap.rename, and a restore's, held at epoch.rename.
func TestNoSnapWriteAfterDelete(t *testing.T) {
	encrypt := encryptRequest{Values: fromComplex(make([]complex128, 4))}
	for _, tc := range []struct {
		name, point string
		setup       func(t *testing.T, d *daemon, base string) string // returns the session ID
		write       func(d *daemon, base, id string)                  // the write DELETE races
	}{
		{"evict", "snap.rename",
			func(t *testing.T, d *daemon, base string) string {
				d.store.hook = func(p string) error {
					if strings.HasPrefix(p, "snap.") {
						return fmt.Errorf("injected failure at %s", p)
					}
					return nil
				}
				id := createSession(t, base, testSessionRequest()).ID // resident, not durable
				d.store.hook = nil
				return id
			},
			func(d *daemon, _, id string) { d.evictSession(d.sessions.Acquire(id)) }},
		{"restore", "epoch.rename",
			func(t *testing.T, d *daemon, base string) string {
				id := createSession(t, base, testSessionRequest()).ID
				evictNow(t, d, id)
				return id
			},
			func(_ *daemon, base, id string) { postStatus(base+"/v1/sessions/"+id+"/encrypt", encrypt) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			d, ts := newTestDaemon(t, daemonConfig{StateDir: dir})
			id := tc.setup(t, d, ts.URL)
			held, release := holdStoreAt(d, tc.point)
			wrote, deleted := make(chan struct{}), make(chan int, 1)
			go func() { tc.write(d, ts.URL, id); close(wrote) }()
			<-held
			go func() { deleted <- deleteStatus(ts.URL, id) }()
			waitRegistryDeleted(t, d, id)
			// Give a DELETE that does not wait for the write time to finish
			// its unlinks before the write lands.
			select {
			case status := <-deleted:
				deleted <- status
			case <-time.After(200 * time.Millisecond):
			}
			close(release)
			<-wrote
			if status := <-deleted; status != http.StatusNoContent {
				t.Fatalf("delete: status %d", status)
			}
			if left, _ := filepath.Glob(filepath.Join(dir, id+".*")); len(left) != 0 {
				t.Fatalf("deleted session left files behind: %v", left)
			}
			_, tsB := newTestDaemon(t, daemonConfig{StateDir: dir})
			if status, raw := doJSON(t, http.MethodPost, tsB.URL+"/v1/sessions/"+id+"/encrypt", nil, encrypt, nil); status != http.StatusNotFound {
				t.Fatalf("after a restart: status %d (%s), want 404: the deleted session came back", status, raw)
			}
		})
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

// TestIdemRecordDurableBeforeRelease: the ring slot is written and fsync'd
// before the response it records is released — while the write is held at
// its fsync boundary the client has seen nothing, and the response the client
// eventually sees is the one the record describes.
func TestIdemRecordDurableBeforeRelease(t *testing.T) {
	dir := t.TempDir()
	d, ts := newTestDaemon(t, daemonConfig{StateDir: dir})
	sr := createSession(t, ts.URL, testSessionRequest())
	ct := encryptValues(t, ts.URL, sr.ID, []complex128{1, 2, 3, 4}).Ciphertext
	var body []byte
	holdAt(t, d, "journal.fsync", func() {
		body, _ = keyedEval(t, ts.URL, sr.ID, "k", ct)
	})
	recs := ringRecords(t, dir, sr.ID, 512)
	want := idemRecord{seq: 1, key: sha256.Sum256([]byte("k")), req: sha256.Sum256(mustJSON(t, idemEval(ct))),
		status: http.StatusOK, resp: crc32.Checksum(body, crc32c)}
	if len(recs) != 1 || recs[0] != want {
		t.Fatalf("ring after release: %+v, want the one record %+v", recs, want)
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
	if got := snapEpoch(t, dir, sr.ID); got != 1 {
		t.Fatalf(".snap after the first restore holds epoch %d, want 1", got)
	}
}

// TestRestorePhasesSumToRestore: the three fastd.restore.*_ns histograms
// partition restoreSession — their sums account for its wall time to within
// 15 % — and fastd.evict_ns times the evict beside it.
func TestRestorePhasesSumToRestore(t *testing.T) {
	dir := t.TempDir()
	d, ts := newTestDaemon(t, daemonConfig{StateDir: dir})
	sr := createSession(t, ts.URL, testSessionRequest())
	st := d.store
	phaseSum := func() (sum int64) {
		for _, h := range []*obs.Histogram{st.mSnapshotLoad, st.mExpand, st.mEpochWrite} {
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
		_, err := d.restoreSession(d.shards[0], d.idemTable(sr.ID))
		wall += time.Since(t0)
		phases += phaseSum() - before
		if err != nil {
			t.Fatalf("restore %d: err=%v", i, err)
		}
		encryptValues(t, ts.URL, sr.ID, make([]complex128, 4)) // make it resident again
	}
	for _, h := range []*obs.Histogram{st.mSnapshotLoad, st.mExpand, st.mEpochWrite} {
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
