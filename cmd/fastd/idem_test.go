package main

// Tests of idempotent replay: the digest ring's on-disk format (torn slots,
// flipped bits, older formats, FuzzIdemRing) and the replay contract over
// HTTP (re-execution marked as a replay, 422 on key reuse, 500 on a digest
// mismatch, /encrypt ignoring the key, a truncated body never recorded).

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	fast "github.com/fastfhe/fast"
	"github.com/fastfhe/fast/internal/obs"
)

// idemEval is the eval body the idempotency tests key: a rotation (one key
// switch) and an added constant on ct.
func idemEval(ct string) map[string]any {
	return evalOf(fast.NewProgram().In("x").Rotate("r", "x", 1, hybrid).AddConst("out", "r", 0.5).Return("out"), ct)
}

// postKeyed posts raw under an Idempotency-Key; safe off the test goroutine.
func postKeyed(url, key string, raw []byte) (status int, body []byte, hdr http.Header, err error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(raw))
	if err != nil {
		return 0, nil, nil, err
	}
	req.Header.Set("Idempotency-Key", key)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	body, err = io.ReadAll(resp.Body)
	return resp.StatusCode, body, resp.Header, err
}

// keyedPost posts body as JSON under an Idempotency-Key.
func keyedPost(t *testing.T, url, key string, body any) (status int, raw []byte, hdr http.Header) {
	t.Helper()
	status, raw, hdr, err := postKeyed(url, key, mustJSON(t, body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	return status, raw, hdr
}

// keyedEval posts idemEval(ct) under key, requires a 200 and returns the
// response bytes and whether they were marked as a replay.
func keyedEval(t *testing.T, base, id, key, ct string) (body []byte, replayed bool) {
	t.Helper()
	status, raw, hdr := keyedPost(t, base+"/v1/sessions/"+id+"/eval", key, idemEval(ct))
	if status != http.StatusOK {
		t.Fatalf("keyed eval %s: status %d: %s", key, status, raw)
	}
	return raw, hdr.Get("Idempotency-Replayed") == "true"
}

// ringRecords reads a session's ring the way its first keyed request does
// and returns the records, empty slots left out.
func ringRecords(t *testing.T, dir, id string, capacity int) []idemRecord {
	t.Helper()
	var recs []idemRecord
	for _, r := range testStore(t, dir).loadIdem(id, capacity) {
		if r.seq != 0 {
			recs = append(recs, r)
		}
	}
	return recs
}

func testRecord(seq uint64, key string) idemRecord {
	return idemRecord{seq: seq, key: sha256.Sum256([]byte(key)), req: sha256.Sum256([]byte("req " + key)),
		status: http.StatusOK, resp: uint32(seq) * 0x9E3779B9}
}

// TestIdemRingTornSlotEveryOffset cuts the write of one slot at every byte
// offset — every state a crash mid-write can leave, while the ring still
// grows and after it has wrapped — and asserts that only the torn record (and,
// after a wrap, the oldest one it was overwriting) is gone, that loading
// changes nothing on disk, and that the retried record lands in the torn slot.
func TestIdemRingTornSlotEveryOffset(t *testing.T) {
	const capacity = 4
	for _, tc := range []struct {
		name    string
		written int // records fully written before the torn one
		want    []uint64
	}{
		{"growing", 2, []uint64{1, 2, 3}},
		{"wrapped", 4, []uint64{5, 2, 3, 4}}, // by slot
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			st := testStore(t, dir)
			for seq := uint64(1); seq <= uint64(tc.written); seq++ {
				rec := testRecord(seq, fmt.Sprint("k", seq))
				if err := st.writeIdem("s1", int((seq-1)%capacity), &rec); err != nil {
					t.Fatal(err)
				}
			}
			path := st.idemPath("s1")
			whole, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			torn := testRecord(uint64(tc.written+1), "torn")
			off := len(idemMagic) + (tc.written%capacity)*idemSlotLen
			check := func(name string, content []byte) {
				t.Helper()
				if err := os.WriteFile(path, content, 0o644); err != nil {
					t.Fatal(err)
				}
				tbl := &idemTable{id: "s1", cap: capacity, st: st, pending: map[[sha256.Size]byte]chan struct{}{}}
				if rec, wait := tbl.begin(torn.key); rec != nil || wait != nil {
					t.Fatalf("%s: the torn record survived the load", name)
				}
				if got := len(ringRecords(t, dir, "s1", capacity)); got != len(tc.want)-1 {
					t.Fatalf("%s: %d records survive, want %d", name, got, len(tc.want)-1)
				}
				if now, _ := os.ReadFile(path); !bytes.Equal(now, content) {
					t.Fatalf("%s: loading the ring rewrote it", name)
				}
				retried := torn
				tbl.settle(torn.key, &retried)
				var seqs []uint64
				for _, r := range ringRecords(t, dir, "s1", capacity) {
					seqs = append(seqs, r.seq)
				}
				if fmt.Sprint(seqs) != fmt.Sprint(tc.want) || retried.seq != torn.seq {
					t.Fatalf("%s: after the retry the ring holds seqs %v (retry got seq %d), want %v", name, seqs, retried.seq, tc.want)
				}
			}
			slot := torn.slot()
			for cut := 1; cut < idemSlotLen; cut++ {
				content := append([]byte(nil), whole...)
				if off+cut > len(content) {
					content = append(content[:off], slot[:cut]...)
				} else {
					copy(content[off:], slot[:cut])
				}
				check(fmt.Sprintf("cut@%d", cut), content)
			}
			// The file was extended but the data never landed (power loss).
			if off == len(whole) {
				check("zeroed", append(append([]byte(nil), whole...), make([]byte, idemSlotLen)...))
			}
		})
	}
}

// TestIdemRingFlippedBitOneSlot: a flipped bit in one slot costs that key its
// record and nothing else — the keys after it still replay — and the key's
// retry is answered correctly, recorded anew, and replays from then on.
func TestIdemRingFlippedBitOneSlot(t *testing.T) {
	dir := t.TempDir()
	_, tsA := newTestDaemon(t, daemonConfig{StateDir: dir})
	sr := createSession(t, tsA.URL, testSessionRequest())
	ct := encryptValues(t, tsA.URL, sr.ID, []complex128{1, 2, 3, 4}).Ciphertext
	var bodies [4][]byte
	for i := range bodies {
		bodies[i], _ = keyedEval(t, tsA.URL, sr.ID, fmt.Sprint("k", i), ct)
	}
	path := filepath.Join(dir, sr.ID+".idem")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(idemMagic)+idemSlotLen+20] ^= 0x01 // inside k1's key digest
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	dB, tsB := newTestDaemon(t, daemonConfig{StateDir: dir})
	for _, i := range []int{0, 2, 3} {
		if body, replayed := keyedEval(t, tsB.URL, sr.ID, fmt.Sprint("k", i), ct); !replayed || !bytes.Equal(body, bodies[i]) {
			t.Fatalf("k%d, a neighbour of the damaged slot, did not replay byte-identically (replayed=%v)", i, replayed)
		}
	}
	body, replayed := keyedEval(t, tsB.URL, sr.ID, "k1", ct)
	if replayed || !bytes.Equal(body, bodies[1]) {
		t.Fatalf("k1 after its slot was damaged: replayed=%v, same bytes=%v; want a first execution with the same bytes",
			replayed, bytes.Equal(body, bodies[1]))
	}
	if body, replayed := keyedEval(t, tsB.URL, sr.ID, "k1", ct); !replayed || !bytes.Equal(body, bodies[1]) {
		t.Fatal("k1 does not replay once recorded again")
	}
	if got := dB.mIdemReplays.Value(); got != 4 {
		t.Fatalf("fastd.idem.replays = %d, want 4", got)
	}
}

// TestLegacyJournalDiscarded: a journal in an older format — the JSON lines
// of the first builds, or the body-framed "FASTIDM\x01" of the parent — is
// logged, discarded and replaced by a ring. The session and its keys restore
// normally; only the dedup window of the pre-upgrade state dir is lost.
func TestLegacyJournalDiscarded(t *testing.T) {
	framedBody := []byte(`{"ciphertext":"AAAA","level":1,"scale":1}` + "\n")
	framed := append([]byte("FASTIDM\x01"), make([]byte, 16)...)
	binary.LittleEndian.PutUint32(framed[8:], 3)
	binary.LittleEndian.PutUint32(framed[12:], http.StatusOK)
	binary.LittleEndian.PutUint32(framed[16:], uint32(len(framedBody)))
	framed = append(append(framed, "old"...), framedBody...)
	crc := crc32.Update(0, crc32c, framed[8:20])
	binary.LittleEndian.PutUint32(framed[20:], crc32.Update(crc, crc32c, framed[24:]))

	for name, legacy := range map[string][]byte{
		"json-lines": []byte(`{"key":"old","status":200,"body":"eyJjaXBoZXJ0ZXh0IjoiQUFBQSJ9Cg=="}` + "\n"),
		"framed-v1":  framed,
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			var logs syncBuffer
			logger := obs.NewLogger(&logs, slog.LevelInfo)
			_, tsA := newTestDaemon(t, daemonConfig{StateDir: dir, Logger: logger})
			sr := createSession(t, tsA.URL, testSessionRequest())
			ct := encryptValues(t, tsA.URL, sr.ID, []complex128{1, 2, 3, 4})
			path := filepath.Join(dir, sr.ID+".idem")
			if err := os.WriteFile(path, legacy, 0o644); err != nil {
				t.Fatal(err)
			}

			_, tsB := newTestDaemon(t, daemonConfig{StateDir: dir, Logger: logger})
			if _, replayed := keyedEval(t, tsB.URL, sr.ID, "old", ct.Ciphertext); replayed {
				t.Fatal("a key from an older journal replayed: a second decoder is being carried")
			}
			if !strings.Contains(logs.String(), "not a digest ring") {
				t.Fatalf("discarding the older journal left no log line:\n%s", logs.String())
			}
			if got := decryptValues(t, tsB.URL, sr.ID, ct.Ciphertext); abs2(got[1]-2) > 1e-3 {
				t.Fatalf("session did not restore normally next to an older journal: slot 1 = %v", got[1])
			}
			raw, err := os.ReadFile(path)
			if err != nil || !bytes.HasPrefix(raw, idemMagic[:]) {
				t.Fatalf("older journal was not replaced by a ring (err=%v, %d bytes)", err, len(raw))
			}
			if recs := ringRecords(t, dir, sr.ID, 512); len(recs) != 1 || recs[0].key != sha256.Sum256([]byte("old")) {
				t.Fatalf("new ring = %+v, want the one re-executed key", recs)
			}
		})
	}
}

// TestIdemKeyReuseDifferentBodyIs422: a key that comes back with another
// program or another input is refused with 422 before it executes — in the
// process that recorded it and after a restart — counted, access-logged as
// idem_conflict, never recorded; the key's own request still replays.
func TestIdemKeyReuseDifferentBodyIs422(t *testing.T) {
	dir := t.TempDir()
	var logs syncBuffer
	dA, tsA := newTestDaemon(t, daemonConfig{StateDir: dir, Logger: obs.NewLogger(&logs, slog.LevelInfo)})
	sr := createSession(t, tsA.URL, testSessionRequest())
	cx := encryptValues(t, tsA.URL, sr.ID, []complex128{1, 2, 3, 4}).Ciphertext
	cy := encryptValues(t, tsA.URL, sr.ID, []complex128{4, 3, 2, 1}).Ciphertext
	url := "/v1/sessions/" + sr.ID + "/eval"
	first, _ := keyedEval(t, tsA.URL, sr.ID, "k", cx)
	others := []any{
		idemEval(cy), // another input
		evalOf(fast.NewProgram().In("x").AddConst("out", "x", 2).Return("out"), cx), // another program
	}
	for i, other := range others {
		status, raw, hdr := keyedPost(t, tsA.URL+url, "k", other)
		if status != http.StatusUnprocessableEntity || hdr.Get("Idempotency-Replayed") != "" || bytes.Equal(raw, first) {
			t.Fatalf("reuse %d of a key for a different request: status %d, replayed %q: %.120s; want 422",
				i, status, hdr.Get("Idempotency-Replayed"), raw)
		}
	}
	if got, rec := dA.mIdemConflicts.Value(), dA.mIdemRecorded.Value(); got != 2 || rec != 1 {
		t.Fatalf("fastd.idem.conflicts = %d, recorded = %d; want 2 and 1", got, rec)
	}
	if n := strings.Count(logs.String(), `"outcome":"idem_conflict"`); n != 2 {
		t.Fatalf("access log has %d idem_conflict outcomes, want 2", n)
	}
	if body, replayed := keyedEval(t, tsA.URL, sr.ID, "k", cx); !replayed || !bytes.Equal(body, first) {
		t.Fatal("the key's own request no longer replays after a conflict")
	}

	dB, tsB := newTestDaemon(t, daemonConfig{StateDir: dir})
	if status, raw, _ := keyedPost(t, tsB.URL+url, "k", others[0]); status != http.StatusUnprocessableEntity {
		t.Fatalf("key reuse after a restart: status %d: %.120s; want 422", status, raw)
	}
	if body, replayed := keyedEval(t, tsB.URL, sr.ID, "k", cx); !replayed || !bytes.Equal(body, first) {
		t.Fatal("the key's own request does not replay after a restart")
	}
	if got := dB.mIdemConflicts.Value(); got != 1 {
		t.Fatalf("fastd.idem.conflicts after restart = %d, want 1", got)
	}
}

// TestIdemReplayMismatchIs500: a re-execution whose bytes do not hash to the
// record means evaluation was not deterministic; it is answered 500 and
// counted, never sent as a replay. (The record is doctored here: a real
// mismatch is what every byte-identity suite asserts cannot happen.)
func TestIdemReplayMismatchIs500(t *testing.T) {
	dir := t.TempDir()
	_, tsA := newTestDaemon(t, daemonConfig{StateDir: dir})
	sr := createSession(t, tsA.URL, testSessionRequest())
	ct := encryptValues(t, tsA.URL, sr.ID, []complex128{1, 2, 3, 4}).Ciphertext
	first, _ := keyedEval(t, tsA.URL, sr.ID, "k", ct)
	st := testStore(t, dir)
	rec := ringRecords(t, dir, sr.ID, 512)[0]
	rec.resp ^= 1
	if err := st.writeIdem(sr.ID, 0, &rec); err != nil {
		t.Fatal(err)
	}

	dB, tsB := newTestDaemon(t, daemonConfig{StateDir: dir})
	status, raw, hdr := keyedPost(t, tsB.URL+"/v1/sessions/"+sr.ID+"/eval", "k", idemEval(ct))
	if status != http.StatusInternalServerError || hdr.Get("Idempotency-Replayed") != "" || bytes.Equal(raw, first) {
		t.Fatalf("retry against a record its bytes do not match: status %d, replayed %q; want a 500",
			status, hdr.Get("Idempotency-Replayed"))
	}
	if got := dB.mIdemMismatch.Value(); got != 1 {
		t.Fatalf("fastd.idem.replay_mismatch = %d, want 1", got)
	}
}

// TestIdemConcurrentDuplicateWaits: a duplicate that arrives while the first
// execution's record is still being written waits for it, then replays.
func TestIdemConcurrentDuplicateWaits(t *testing.T) {
	d, ts := newTestDaemon(t, daemonConfig{StateDir: t.TempDir()})
	sr := createSession(t, ts.URL, testSessionRequest())
	ct := encryptValues(t, ts.URL, sr.ID, []complex128{1, 2, 3, 4}).Ciphertext
	url, raw := ts.URL+"/v1/sessions/"+sr.ID+"/eval", mustJSON(t, idemEval(ct))
	type reply struct {
		status int
		body   []byte
		hdr    http.Header
		err    error
	}
	post := func(out chan<- reply) {
		var r reply
		r.status, r.body, r.hdr, r.err = postKeyed(url, "k", raw)
		out <- r
	}
	held, release := holdStoreAt(d, "journal.fsync")
	first, dup := make(chan reply, 1), make(chan reply, 1)
	go post(first)
	<-held
	go post(dup)
	time.Sleep(100 * time.Millisecond)
	select {
	case r := <-dup:
		t.Fatalf("the duplicate was answered (status %d) before the first execution was recorded", r.status)
	default:
	}
	close(release)
	a, b := <-first, <-dup
	if a.err != nil || b.err != nil || a.status != http.StatusOK || b.status != http.StatusOK {
		t.Fatalf("first: %d %v; duplicate: %d %v", a.status, a.err, b.status, b.err)
	}
	if a.hdr.Get("Idempotency-Replayed") != "" || b.hdr.Get("Idempotency-Replayed") != "true" || !bytes.Equal(a.body, b.body) {
		t.Fatal("the duplicate was not a byte-identical replay of the first execution")
	}
	if got := d.mIdemReplays.Value(); got != 1 {
		t.Fatalf("fastd.idem.replays = %d, want 1", got)
	}
}

// TestKeyedEncryptIsFresh: /encrypt ignores Idempotency-Key. Two encrypts
// under one key are two fresh, equally valid encryptions — different bytes,
// both decrypting to the values, neither marked a replay — and nothing is
// recorded.
func TestKeyedEncryptIsFresh(t *testing.T) {
	dir := t.TempDir()
	d, ts := newTestDaemon(t, daemonConfig{StateDir: dir})
	sr := createSession(t, ts.URL, testSessionRequest())
	vals := []complex128{1, 2i, -3, 0.5}
	var cts [2]ciphertextResponse
	for i := range cts {
		status, raw, hdr := keyedPost(t, ts.URL+"/v1/sessions/"+sr.ID+"/encrypt", "same-key", encryptRequest{Values: fromComplex(vals)})
		if status != http.StatusOK || hdr.Get("Idempotency-Replayed") != "" {
			t.Fatalf("keyed encrypt %d: status %d, replayed %q", i, status, hdr.Get("Idempotency-Replayed"))
		}
		if err := json.Unmarshal(raw, &cts[i]); err != nil {
			t.Fatal(err)
		}
		got := decryptValues(t, ts.URL, sr.ID, cts[i].Ciphertext)
		for j, v := range vals {
			if abs2(got[j]-v) > 1e-3 {
				t.Fatalf("keyed encrypt %d, slot %d: decrypts to %v, want %v", i, j, got[j], v)
			}
		}
	}
	if cts[0].Ciphertext == cts[1].Ciphertext {
		t.Fatal("two keyed encrypts returned the same bytes: the key was honoured")
	}
	if got := d.mIdemRecorded.Value(); got != 0 {
		t.Fatalf("fastd.idem.recorded = %d after keyed encrypts, want 0", got)
	}
	if _, err := os.Stat(filepath.Join(dir, sr.ID+".idem")); !os.IsNotExist(err) {
		t.Fatalf("keyed encrypts wrote a ring (err=%v)", err)
	}
}

// TestIdemTruncatedBodyNotRecorded: a keyed eval whose connection drops
// mid-body is a 400 about bytes that never arrived, not about the request —
// it must not be recorded, so the retry with the whole body executes (200,
// not a replay) instead of replaying the 400 forever.
func TestIdemTruncatedBodyNotRecorded(t *testing.T) {
	d, ts := newTestDaemon(t, daemonConfig{StateDir: t.TempDir()})
	sr := createSession(t, ts.URL, testSessionRequest())
	ct := encryptValues(t, ts.URL, sr.ID, []complex128{1, 2, 3, 4}).Ciphertext
	path, raw := "/v1/sessions/"+sr.ID+"/eval", mustJSON(t, idemEval(ct))

	conn, err := net.Dial("tcp", strings.TrimPrefix(ts.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "POST %s HTTP/1.1\r\nHost: fastd\r\nIdempotency-Key: cut\r\nContent-Length: %d\r\n\r\n", path, len(raw))
	if _, err := conn.Write(raw[:len(raw)/2]); err != nil {
		t.Fatal(err)
	}
	if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("truncated keyed eval: status %d, want 400", resp.StatusCode)
	}

	status, body, hdr := keyedPost(t, ts.URL+path, "cut", idemEval(ct))
	if status != http.StatusOK || hdr.Get("Idempotency-Replayed") != "" {
		t.Fatalf("retry with the whole body: status %d, replayed %q: %.120s; want 200, not a replay",
			status, hdr.Get("Idempotency-Replayed"), body)
	}
	if got := d.mIdemRecorded.Value(); got != 1 {
		t.Fatalf("fastd.idem.recorded = %d, want 1 (the whole request only)", got)
	}
}

// FuzzIdemRing: whatever bytes a ring file holds, loading it never panics
// and yields only records that are in the file with a valid CRC, in the slot
// their seq names, one per key — and a table loaded from it can record.
func FuzzIdemRing(f *testing.F) {
	var ring []byte
	ring = append(ring, idemMagic[:]...)
	for seq := uint64(1); seq <= 5; seq++ {
		rec := testRecord(seq, fmt.Sprint("k", seq%3))
		slot := int((seq - 1) % 4)
		if off := len(idemMagic) + slot*idemSlotLen; off < len(ring) {
			copy(ring[off:], rec.slot())
		} else {
			ring = append(ring, rec.slot()...)
		}
	}
	f.Add(ring, uint8(4))
	f.Add(ring[:len(ring)-7], uint8(4))
	f.Add(ring, uint8(2))
	f.Add(idemMagic[:], uint8(1))
	f.Add([]byte("FASTIDM\x01"), uint8(4))
	f.Add([]byte{}, uint8(0))
	f.Fuzz(func(t *testing.T, raw []byte, c uint8) {
		capacity := int(c%8) + 1
		ring, ok := parseIdemRing(raw, capacity)
		if !ok {
			if ring != nil {
				t.Fatal("a rejected file yielded records")
			}
			return
		}
		if len(ring) > capacity {
			t.Fatalf("%d slots for capacity %d", len(ring), capacity)
		}
		tbl := &idemTable{cap: capacity, loaded: true, ring: ring, pending: map[[sha256.Size]byte]chan struct{}{}}
		keys := map[[sha256.Size]byte]bool{}
		for i, rec := range ring {
			if rec.seq == 0 {
				if rec != (idemRecord{}) {
					t.Fatalf("slot %d: seq 0 with content %+v", i, rec)
				}
				continue
			}
			off := len(idemMagic) + i*idemSlotLen
			if !bytes.Equal(raw[off:off+idemSlotLen], rec.slot()) {
				t.Fatalf("slot %d: record %+v is not the file's CRC-valid bytes", i, rec)
			}
			if (rec.seq-1)%uint64(capacity) != uint64(i) {
				t.Fatalf("slot %d holds seq %d (capacity %d)", i, rec.seq, capacity)
			}
			if keys[rec.key] {
				t.Fatalf("key %x has two records", rec.key[:4])
			}
			keys[rec.key] = true
			tbl.seq = max(tbl.seq, rec.seq)
		}
		key := sha256.Sum256(raw)
		if rec, wait := tbl.begin(key); rec == nil && wait == nil {
			tbl.settle(key, &idemRecord{key: key})
		}
	})
}
