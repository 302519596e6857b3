package main

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"net/http"
	"os"
	"strconv"
	"sync"

	fast "github.com/fastfhe/fast"
	"github.com/fastfhe/fast/internal/obs"
)

// Idempotent replay. fastd remembers what a keyed request asked, not what it
// was answered: an eval is a pure function of (session keys, request), so a
// retry is answered by executing it again, and the record only decides whether
// that answer is marked Idempotency-Replayed — it does so when the retry
// carries the same request and its bytes hash to what the first execution
// sent. /encrypt draws from the session's sampler stream, is not pure, and
// ignores the header (DESIGN.md "Idempotent replay").

// idemRecord is one keyed request's record. seq 0 is an empty slot.
type idemRecord struct {
	seq    uint64            // per session: 1, 2, 3, …
	key    [sha256.Size]byte // SHA-256 of the Idempotency-Key
	req    [sha256.Size]byte // SHA-256 of the raw request body
	status uint32            // HTTP status of the first execution
	resp   uint32            // CRC-32C of its response bytes
}

// The ring file (<id>.idem): the magic, then IdemCap slots of idemSlotLen
// bytes. Record seq lives in slot (seq-1) mod IdemCap, so the file grows one
// slot per record until it wraps and is overwritten in place from then on.
// A slot is, little-endian:
//
//	seq 8 | key digest 32 | request digest 32 | status 4 | response CRC 4 | CRC-32C of the preceding 80 4
//
// A slot is written and fsync'd before the response it records is released,
// so a torn write is a slot that fails its CRC: its response was never seen,
// and the record it was overwriting was the oldest in the window. Nothing is
// ever repaired, truncated or compacted.
var idemMagic = [8]byte{'F', 'A', 'S', 'T', 'I', 'D', 'M', 2}

const idemSlotLen = 8 + 2*sha256.Size + 4 + 4 + 4

func (rec *idemRecord) slot() []byte {
	b := make([]byte, 0, idemSlotLen)
	b = binary.LittleEndian.AppendUint64(b, rec.seq)
	b = append(b, rec.key[:]...)
	b = append(b, rec.req[:]...)
	b = binary.LittleEndian.AppendUint32(b, rec.status)
	b = binary.LittleEndian.AppendUint32(b, rec.resp)
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, crc32c))
}

// parseIdemSlot decodes one slot; ok is false for an empty or damaged one.
func parseIdemSlot(b []byte) (rec idemRecord, ok bool) {
	const n = idemSlotLen - 4
	if binary.LittleEndian.Uint32(b[n:]) != crc32.Checksum(b[:n], crc32c) {
		return rec, false
	}
	rec.seq = binary.LittleEndian.Uint64(b)
	copy(rec.key[:], b[8:])
	copy(rec.req[:], b[8+sha256.Size:])
	rec.status = binary.LittleEndian.Uint32(b[8+2*sha256.Size:])
	rec.resp = binary.LittleEndian.Uint32(b[12+2*sha256.Size:])
	return rec, rec.seq != 0
}

// parseIdemRing returns a ring file's records by slot: only slots whose CRC
// holds and that sit where their seq puts them, and one record per key (the
// later). ok is false when raw is not a ring file at all.
func parseIdemRing(raw []byte, capacity int) (ring []idemRecord, ok bool) {
	if len(raw) < len(idemMagic) || [8]byte(raw) != idemMagic {
		return nil, false
	}
	raw = raw[len(idemMagic):]
	ring = make([]idemRecord, min(len(raw)/idemSlotLen, capacity))
	for i := range ring {
		rec, ok := parseIdemSlot(raw[i*idemSlotLen:])
		if !ok || (rec.seq-1)%uint64(capacity) != uint64(i) {
			continue
		}
		if j := findRecord(ring[:i], rec.key); j >= 0 {
			if ring[j].seq > rec.seq {
				continue
			}
			ring[j] = idemRecord{}
		}
		ring[i] = rec
	}
	return ring, true
}

// findRecord returns the index of key's record in ring, or -1.
func findRecord(ring []idemRecord, key [sha256.Size]byte) int {
	for i := range ring {
		if ring[i].seq != 0 && ring[i].key == key {
			return i
		}
	}
	return -1
}

// idemTable is one session ID's window of the last IdemCap keyed requests,
// and the write guard of the ID's files. It belongs to the ID, not to the
// resident session object: it survives evict/restore untouched, is read from
// disk at most once per process (on its first keyed request), and is dropped
// by DELETE.
type idemTable struct {
	id  string
	cap int

	// wmu orders every write of the ID's files (persist) with dropIdem: once
	// a delete has taken st away, no write is in flight and none starts, so
	// none recreates a removed file. st changes only under wmu and mu both.
	wmu sync.Mutex
	st  *sessionStore // nil: no state dir, or the session was deleted

	mu      sync.Mutex
	loaded  bool
	seq     uint64                              // highest seq recorded
	ring    []idemRecord                        // by slot; grows to cap
	pending map[[sha256.Size]byte]chan struct{} // keys whose first execution is in flight
}

// idemTable returns the session ID's table, creating it on first use.
func (d *daemon) idemTable(id string) *idemTable {
	d.idemMu.Lock()
	defer d.idemMu.Unlock()
	t := d.idem[id]
	if t == nil {
		t = &idemTable{id: id, cap: d.cfg.IdemCap, st: d.store, pending: map[[sha256.Size]byte]chan struct{}{}}
		d.idem[id] = t
	}
	return t
}

// dropIdem forgets a deleted session's table, waiting out a ring write in
// flight. A request still finishing on it records in memory only, so it
// cannot recreate the file the delete removes.
func (d *daemon) dropIdem(id string) {
	d.idemMu.Lock()
	t := d.idem[id]
	delete(d.idem, id)
	d.idemMu.Unlock()
	if t != nil {
		t.wmu.Lock()
		t.mu.Lock()
		t.st = nil
		t.mu.Unlock()
		t.wmu.Unlock()
	}
}

var errDeleted = errors.New("session deleted")

// persist runs write under wmu, or returns errDeleted once a DELETE dropped
// the table. A writer holds the table from before the registry move that
// made its write legitimate (Reserve, BeginRestore, the evicted session's
// own), so a later DELETE drops this very table and unlinks after the write.
func (t *idemTable) persist(write func(*sessionStore) error) error {
	t.wmu.Lock()
	defer t.wmu.Unlock()
	if t.st == nil {
		return errDeleted
	}
	return write(t.st)
}

// begin looks a key up. A non-nil wait means its first execution is in
// flight: wait, then look again. Otherwise rec is the key's record — or nil,
// and the caller now owns the first execution and must end it with settle.
func (t *idemTable) begin(key [sha256.Size]byte) (rec *idemRecord, wait <-chan struct{}) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.loaded && t.st != nil {
		t.ring = t.st.loadIdem(t.id, t.cap)
		for _, r := range t.ring {
			t.seq = max(t.seq, r.seq)
		}
	}
	t.loaded = true
	if ch, ok := t.pending[key]; ok {
		return nil, ch
	}
	if i := findRecord(t.ring, key); i >= 0 {
		r := t.ring[i]
		return &r, nil
	}
	t.pending[key] = make(chan struct{})
	return nil, nil
}

// settle ends a first execution. A non-nil rec is recorded — in the ring and,
// with a state dir, fsync'd in its slot — before settle returns, and so before
// the response is released; then the duplicates waiting on the key look again.
// A write that fails twice is counted and leaves the record in memory only.
func (t *idemTable) settle(key [sha256.Size]byte, rec *idemRecord) {
	if rec != nil {
		t.mu.Lock()
		t.seq++
		rec.seq = t.seq
		slot := int((rec.seq - 1) % uint64(t.cap))
		for len(t.ring) <= slot {
			t.ring = append(t.ring, idemRecord{})
		}
		t.ring[slot] = *rec
		t.mu.Unlock()

		_ = t.persist(func(st *sessionStore) error {
			return st.retry("idempotency record", t.id, func() error { return st.writeIdem(t.id, slot, rec) })
		})
	}
	t.mu.Lock()
	close(t.pending[key])
	delete(t.pending, key)
	t.mu.Unlock()
}

// loadIdem reads a session's ring file in one read of at most its full size.
// A file in any other format — the JSON-lines journal before PR 12, the
// body-framed one before the ring — or an empty one is removed: its dedup
// window is lost, nothing else.
func (st *sessionStore) loadIdem(id string, capacity int) []idemRecord {
	path := st.idemPath(id)
	f, err := os.Open(path)
	if err != nil {
		if !errors.Is(err, fs.ErrNotExist) {
			st.logger.Warn("idempotency ring unreadable", "session", id, "error", err.Error())
		}
		return nil
	}
	defer f.Close()
	raw := make([]byte, len(idemMagic)+capacity*idemSlotLen)
	n, err := io.ReadFull(f, raw)
	if err != nil && err != io.ErrUnexpectedEOF && err != io.EOF {
		st.logger.Warn("idempotency ring unreadable", "session", id, "error", err.Error())
		return nil
	}
	ring, ok := parseIdemRing(raw[:n], capacity)
	if !ok {
		st.logger.Warn("idempotency journal is not a digest ring (older format or torn first write): discarded, dedup window lost",
			"session", id, "bytes", n)
		if err := os.Remove(path); err != nil {
			st.logger.Warn("idempotency journal discard failed", "session", id, "error", err.Error())
		}
	}
	return ring
}

// writeIdem writes one record into its slot and fsyncs it. The first write
// of a file also writes the magic and makes the file's name durable.
func (st *sessionStore) writeIdem(id string, slot int, rec *idemRecord) (err error) {
	f, err := os.OpenFile(st.idemPath(id), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return err
	}
	fresh := fi.Size() < int64(len(idemMagic))
	st.step(&err, "journal.write", func() error {
		if fresh {
			if _, err := f.WriteAt(idemMagic[:], 0); err != nil {
				return err
			}
		}
		_, err := f.WriteAt(rec.slot(), int64(len(idemMagic)+slot*idemSlotLen))
		return err
	})
	st.step(&err, "journal.fsync", f.Sync)
	if err == nil && fresh {
		err = st.syncDir()
	}
	return err
}

// withIdempotency runs an eval under its Idempotency-Key, if it has one:
//
//   - a key with no record executes; a deterministic outcome (200/400) is
//     recorded — fsync'd — before the response is released, a transient one
//     (429/503/504/408/500) is not, so its retry runs as a first execution;
//   - a key whose first execution is in flight waits for it, then goes on as
//     a key with a record;
//   - a key with a record but a different request gets 422 without executing;
//   - a key with a record executes again — admission, plan cache, execution —
//     and is sent with Idempotency-Replayed: true if status and response CRC
//     equal the record's. Bytes that differ mean evaluation was not
//     deterministic: 500 and fastd.idem.replay_mismatch, never a replay.
//
// reqBody is the raw request body; h executes the request.
func (d *daemon) withIdempotency(w http.ResponseWriter, r *http.Request, id string, reqBody []byte, h func(w http.ResponseWriter)) {
	key := r.Header.Get("Idempotency-Key")
	if key == "" {
		h(w)
		return
	}
	t := d.idemTable(id)
	keyDigest, reqDigest := sha256.Sum256([]byte(key)), sha256.Sum256(reqBody)
	rec, wait := t.begin(keyDigest)
	for wait != nil {
		select {
		case <-wait:
		case <-r.Context().Done():
			d.writeAdmissionError(w, r, fmt.Errorf("awaiting idempotent duplicate: %w", fast.ErrCanceled))
			return
		}
		rec, wait = t.begin(keyDigest)
	}
	obsReq := obs.RequestFrom(r.Context())
	if rec != nil && rec.req != reqDigest {
		d.mIdemConflicts.Inc()
		obsReq.SetOutcome("idem_conflict")
		httpError(w, http.StatusUnprocessableEntity, fmt.Errorf("Idempotency-Key %q was first used for a different request", key))
		return
	}

	rr := &responseRecorder{header: make(http.Header), status: http.StatusOK}
	defer rr.release()
	h(rr)
	sum := crc32.Checksum(rr.bytes(), crc32c)
	deterministic := rr.status == http.StatusOK || rr.status == http.StatusBadRequest
	switch {
	case rec == nil && deterministic:
		t.settle(keyDigest, &idemRecord{key: keyDigest, req: reqDigest, status: uint32(rr.status), resp: sum})
		d.mIdemRecorded.Inc()
	case rec == nil:
		t.settle(keyDigest, nil)
	case !deterministic:
		// A transient outcome of the re-execution: the client retries again.
	case uint32(rr.status) == rec.status && sum == rec.resp:
		d.mIdemReplays.Inc()
		obsReq.SetOutcome("idem_replay")
		rr.header.Set("Idempotency-Replayed", "true")
	default:
		d.mIdemMismatch.Inc()
		obsReq.SetOutcome("replay_mismatch")
		d.logger.Error("idempotent re-execution differs from its record: evaluation is not deterministic",
			"session", id, "status", rr.status, "recorded_status", rec.status)
		httpError(w, http.StatusInternalServerError, errors.New("re-executed request does not match its idempotency record"))
		return
	}
	for k, vs := range rr.header {
		w.Header()[k] = vs
	}
	w.Header().Set("Content-Length", strconv.Itoa(len(rr.bytes())))
	w.WriteHeader(rr.status)
	_, _ = w.Write(rr.bytes())
}

// responseRecorder holds a keyed request's response until its record is
// durable and its CRC known. The body is copied into a pooled buffer, which
// goes back to respBufs once the response is written.
type responseRecorder struct {
	header http.Header
	status int
	body   *[]byte
}

func (rr *responseRecorder) Header() http.Header { return rr.header }

func (rr *responseRecorder) WriteHeader(status int) { rr.status = status }

func (rr *responseRecorder) Write(p []byte) (int, error) {
	if rr.body == nil {
		rr.body = respBufs.get(len(p))
	}
	*rr.body = append(*rr.body, p...)
	return len(p), nil
}

func (rr *responseRecorder) bytes() []byte {
	if rr.body == nil {
		return nil
	}
	return *rr.body
}

func (rr *responseRecorder) release() {
	if rr.body != nil {
		respBufs.put(rr.body)
	}
}
