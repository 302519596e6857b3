package main

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"io/fs"
	"net/http"
	"os"
	"sync"

	"github.com/fastfhe/fast/internal/lru"
)

// idemEntry is one key's slot in the table. done is closed when the first
// execution completes; waiters replay status/body afterwards. An entry
// rebuilt from the journal on restore carries no body: it knows where its
// frame sits on disk and the body is read (and CRC-verified) only if the key
// is actually retried.
type idemEntry struct {
	key    string
	done   chan struct{}
	status int
	body   []byte // exact response bytes; nil for an index-only restored entry

	// off/n locate the entry's frame in the session's journal (n == 0: not
	// journaled — no state dir, or the append had degraded). Guarded by the
	// journal's mutex: compaction moves frames.
	off int64
	n   int
}

func (e *idemEntry) completed() bool {
	select {
	case <-e.done:
		return true
	default:
		return false
	}
}

// idemTable is a bounded per-session LRU of idempotent request outcomes.
// Exactly-once semantics within a process come from in-flight coalescing:
// the first request for a key owns execution, concurrent duplicates block on
// done and replay the recorded outcome. Exactly-once across restarts comes
// from the journal below: records are fsync'd before the owning response is
// released, and the table is rebuilt from the journal's index on restore.
//
// The table is bounded: once full, the least-recently-touched COMPLETED entry
// is discarded (in-flight entries are never evicted — their owner still needs
// to complete them). A retry arriving after its record was evicted re-executes;
// the bound is the standard dedup-window trade-off, sized so that any retry
// inside a sane client backoff horizon hits its record.
type idemTable struct {
	mu  sync.Mutex
	cap int
	lru *lru.Map[*idemEntry]
}

const idemTableCap = 512

func newIdemTable(capacity int) *idemTable {
	return &idemTable{cap: capacity, lru: lru.New[*idemEntry]()}
}

// begin claims the key. owner=true means the caller must execute the request
// and finish with complete() or abandon(). owner=false means an entry already
// exists: wait on entry.done (it may already be closed) and replay.
func (t *idemTable) begin(key string) (entry *idemEntry, owner bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if e, ok := t.lru.Get(key); ok {
		return e, false
	}
	e := &idemEntry{key: key, done: make(chan struct{})}
	t.lru.Put(key, e)
	t.evictLocked()
	return e, true
}

// complete records the outcome (and where the journal holds it) and releases
// all waiters.
func (t *idemTable) complete(e *idemEntry, status int, body []byte, off int64, n int) {
	t.mu.Lock()
	e.status, e.body, e.off, e.n = status, body, off, n
	t.mu.Unlock()
	close(e.done)
}

// abandon removes an in-flight entry whose execution ended in a transient,
// non-recordable outcome (queue full, shed, 5xx): the next retry must
// re-execute, not replay a failure. Waiters are released and observe
// status==0, which sends them back through execution themselves.
func (t *idemTable) abandon(e *idemEntry) {
	t.forget(e)
	close(e.done)
}

// forget drops an entry from the table (if it still holds the key): the
// in-flight entry being abandoned, or a restored one whose journaled body
// failed verification — "no record", so the retry re-executes.
func (t *idemTable) forget(e *idemEntry) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if cur, ok := t.lru.Get(e.key); ok && cur == e {
		t.lru.Delete(e.key)
	}
}

// insert seeds a completed, index-only record (journal walk on session
// restore). A key journaled twice keeps its later frame.
func (t *idemTable) insert(f journalFrame) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if e, ok := t.lru.Get(f.key); ok {
		if e.completed() {
			e.status, e.body, e.off, e.n = f.status, nil, f.off, f.n
		}
		return
	}
	e := &idemEntry{key: f.key, done: make(chan struct{}), status: f.status, off: f.off, n: f.n}
	close(e.done)
	t.lru.Put(f.key, e)
	t.evictLocked()
}

// completedEntries returns the completed entries oldest-first — the set the
// journal is compacted to, bounded exactly like the table.
func (t *idemTable) completedEntries() []*idemEntry {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*idemEntry, 0, t.lru.Len())
	t.lru.Oldest(func(_ string, e *idemEntry) bool {
		if e.completed() {
			out = append(out, e)
		}
		return true
	})
	return out
}

// evictLocked discards least-recently-touched completed entries past capacity.
func (t *idemTable) evictLocked() {
	t.lru.Oldest(func(key string, e *idemEntry) bool {
		if t.lru.Len() <= t.cap {
			return false
		}
		if e.completed() {
			t.lru.Delete(key)
		}
		return true
	})
}

// ---- Idempotency journal ---------------------------------------------------

// Journal layout (little-endian): an 8-byte magic, then one frame per
// completed request, in completion order:
//
//	keyLen  uint32
//	status  uint32   recorded HTTP status
//	bodyLen uint32
//	crc     uint32   CRC-32C over the three fields above, key and body
//	key     []byte
//	body    []byte   the exact response bytes, raw
//
// Each frame is fsync'd before the response it records is released and
// before the next frame is appended, so the only damage a crash can do is a
// torn LAST frame whose response nobody saw. Restore therefore reads headers
// and keys and seeks past the bodies; it verifies only the last frame, and a
// body is verified when — if ever — it is replayed. A body that fails its
// CRC is never served: the key re-executes as if it had no record.
var journalMagic = [8]byte{'F', 'A', 'S', 'T', 'I', 'D', 'M', 1}

const (
	frameHeaderLen = 16
	// frameMaxKey bounds a frame's key by what net/http accepts as a header
	// (DefaultMaxHeaderBytes); a larger keyLen is a torn or foreign frame.
	frameMaxKey = http.DefaultMaxHeaderBytes
)

// journal is the writer state of one session's on-disk journal. mu
// serialises every access to the file AND to the off/n of the table entries
// that point into it: append+complete, replay reads, the restore walk and
// compaction all hold it.
type journal struct {
	mu     sync.Mutex
	id     string
	path   string
	size   int64 // end of the last good frame: where the next append lands
	frames int   // frames on disk in [len(magic), size)
}

// journalFrame is one frame as the restore walk sees it: everything but the body.
type journalFrame struct {
	key    string
	status int
	off    int64 // of the frame header
	n      int   // header + key + body
}

// journal returns the (shared) writer state for a session's journal file.
func (st *sessionStore) journal(id string) *journal {
	st.mu.Lock()
	defer st.mu.Unlock()
	j := st.journals[id]
	if j == nil {
		j = &journal{id: id, path: st.idemPath(id)}
		st.journals[id] = j
	}
	return j
}

// putFrameHeader fills the 16-byte header of the frame recording (key, status, body).
func putFrameHeader(hdr []byte, key string, status int, body []byte) {
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(key)))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(status))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(len(body)))
	crc := crc32.Update(0, crc32c, hdr[:12])
	crc = crc32.Update(crc, crc32c, []byte(key))
	crc = crc32.Update(crc, crc32c, body)
	binary.LittleEndian.PutUint32(hdr[12:], crc)
}

// parseFrame verifies a whole frame's CRC and returns its parts.
func parseFrame(frame []byte) (key []byte, status int, body []byte, ok bool) {
	if len(frame) < frameHeaderLen {
		return nil, 0, nil, false
	}
	keyLen := int(binary.LittleEndian.Uint32(frame[0:]))
	bodyLen := int(binary.LittleEndian.Uint32(frame[8:]))
	if keyLen > frameMaxKey || frameHeaderLen+keyLen+bodyLen != len(frame) {
		return nil, 0, nil, false
	}
	crc := crc32.Update(0, crc32c, frame[:12])
	crc = crc32.Update(crc, crc32c, frame[frameHeaderLen:])
	if crc != binary.LittleEndian.Uint32(frame[12:]) {
		return nil, 0, nil, false
	}
	return frame[frameHeaderLen : frameHeaderLen+keyLen], int(binary.LittleEndian.Uint32(frame[4:])), frame[frameHeaderLen+keyLen:], true
}

// writeFrame writes one frame at off — preceded by the magic when off is 0,
// the start of a new file — and returns the frame's own offset and length.
func writeFrame(f *os.File, off int64, key string, status int, body []byte) (int64, int, error) {
	var head []byte
	if off == 0 {
		head = append(head, journalMagic[:]...)
	}
	frameOff := off + int64(len(head))
	var hdr [frameHeaderLen]byte
	putFrameHeader(hdr[:], key, status, body)
	head = append(append(head, hdr[:]...), key...)
	if _, err := f.WriteAt(head, off); err != nil {
		return 0, 0, err
	}
	if _, err := f.WriteAt(body, off+int64(len(head))); err != nil {
		return 0, 0, err
	}
	return frameOff, frameHeaderLen + len(key) + len(body), nil
}

// appendFrame durably appends one completed-request record: written at the
// end of the last good frame and fsync'd before returning — and therefore
// before the recorded response reaches the client, so a retry arriving after
// a crash always finds the record the original response was based on. A
// failed append is cut back off the file so later frames never follow junk.
// Caller holds j.mu.
func (st *sessionStore) appendFrame(j *journal, key string, status int, body []byte) (off int64, n int, err error) {
	if err := st.checkFault(); err != nil {
		return 0, 0, err
	}
	f, err := os.OpenFile(j.path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	st.step(&err, "journal.write", func() error {
		off, n, err = writeFrame(f, j.size, key, status, body)
		return err
	})
	st.step(&err, "journal.fsync", f.Sync)
	if err == nil && j.size == 0 {
		err = st.syncDir() // the file is new: its name must survive a crash too
	}
	if err != nil {
		_ = f.Truncate(j.size)
		return 0, 0, err
	}
	j.size = off + int64(n)
	j.frames++
	return off, n, nil
}

// appendFrameRetry is appendFrame with the retry-once-then-degrade policy: a
// record that could not be journaled is still served from memory (n == 0)
// and re-journaled by the next compaction. Caller holds j.mu.
func (st *sessionStore) appendFrameRetry(j *journal, key string, status int, body []byte) (off int64, n int) {
	_ = st.retry("idempotency journal", j.id, func() (err error) {
		off, n, err = st.appendFrame(j, key, status, body)
		return err
	})
	return off, n
}

// readBody fetches a journaled entry's response body for replay, verifying
// the frame's CRC and that it still records this key. ok=false means the
// record cannot be trusted and must be treated as absent.
func (st *sessionStore) readBody(j *journal, e *idemEntry) (body []byte, ok bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if e.n == 0 {
		return e.body, true // never journaled: the entry holds all there is
	}
	f, err := os.Open(j.path)
	if err != nil {
		return nil, false
	}
	defer f.Close()
	frame := make([]byte, e.n)
	if _, err := f.ReadAt(frame, e.off); err != nil {
		return nil, false
	}
	key, status, body, ok := parseFrame(frame)
	return body, ok && string(key) == e.key && status == e.status
}

// indexJournal walks the journal and returns its frames (without bodies),
// leaving j.size/j.frames describing the file. A torn tail — a header or
// extent past EOF, or a last frame that fails its CRC — is the append a crash
// interrupted: no response was released against it, so it is dropped, and
// the file is truncated (and fsync'd) back to the last good frame boundary
// so that the next append does not land behind junk. A file without the
// magic is a pre-framing JSON-lines journal (or a torn very first append):
// it is discarded — its dedup window is lost, nothing else. Caller holds j.mu.
func (st *sessionStore) indexJournal(j *journal) []journalFrame {
	j.size, j.frames = 0, 0
	f, err := os.OpenFile(j.path, os.O_RDWR, 0)
	if err != nil {
		if !errors.Is(err, fs.ErrNotExist) {
			st.logger.Warn("idempotency journal unreadable", "session", j.id, "error", err.Error())
		}
		return nil
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		st.logger.Warn("idempotency journal unreadable", "session", j.id, "error", err.Error())
		return nil
	}
	size := fi.Size()
	if size == 0 {
		return nil // what a failed first append leaves behind
	}

	var hdr [frameHeaderLen]byte
	if n, _ := f.ReadAt(hdr[:len(journalMagic)], 0); n < len(journalMagic) || [8]byte(hdr[:8]) != journalMagic {
		st.logger.Warn("idempotency journal has no frame magic (pre-framing JSON-lines format or torn first append): discarded, dedup window lost",
			"session", j.id, "bytes", size)
		if err := os.Remove(j.path); err != nil {
			st.logger.Warn("idempotency journal discard failed", "session", j.id, "error", err.Error())
		}
		return nil
	}

	var frames []journalFrame
	good := int64(len(journalMagic))
	for good+frameHeaderLen <= size {
		if _, err := f.ReadAt(hdr[:], good); err != nil {
			break
		}
		keyLen := int64(binary.LittleEndian.Uint32(hdr[0:]))
		bodyLen := int64(binary.LittleEndian.Uint32(hdr[8:]))
		end := good + frameHeaderLen + keyLen + bodyLen
		if keyLen > frameMaxKey || end > size {
			break
		}
		key := make([]byte, keyLen)
		if _, err := f.ReadAt(key, good+frameHeaderLen); err != nil {
			break
		}
		frames = append(frames, journalFrame{
			key:    string(key),
			status: int(binary.LittleEndian.Uint32(hdr[4:])),
			off:    good,
			n:      int(end - good),
		})
		good = end
	}
	if k := len(frames) - 1; k >= 0 {
		last := make([]byte, frames[k].n)
		_, err := f.ReadAt(last, frames[k].off)
		if _, _, _, ok := parseFrame(last); err != nil || !ok {
			good, frames = frames[k].off, frames[:k]
		}
	}
	if good < size {
		st.mTornTruncated.Inc()
		st.logger.Warn("idempotency journal: torn tail dropped", "session", j.id, "bytes", size-good, "kept_frames", len(frames))
		var err error
		st.step(&err, "journal.truncate", func() error { return f.Truncate(good) })
		st.step(&err, "journal.truncate-fsync", f.Sync)
		if err != nil {
			// Appends land at j.size regardless, overwriting the junk.
			st.logger.Warn("idempotency journal truncate failed", "session", j.id, "error", err.Error())
		}
	}
	j.size, j.frames = good, len(frames)
	return frames
}

// compactJournal rewrites the journal to exactly the given entries (atomic
// tmp+rename like snapshots), so that the file never outgrows the bounded
// table it mirrors. Frames already on disk are copied byte for byte, not
// re-encoded; an entry whose append had degraded is journaled from memory.
// Caller holds j.mu.
func (st *sessionStore) compactJournal(j *journal, entries []*idemEntry) error {
	if len(entries) == 0 {
		if err := os.Remove(j.path); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return err
		}
		j.size, j.frames = 0, 0
		return st.syncDir()
	}
	old, err := os.Open(j.path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	if old != nil {
		defer old.Close()
	}
	lens := make([]int, len(entries))
	err = st.writeAtomic(j.path, "compact", func(tmp *os.File) error {
		if _, err := tmp.WriteAt(journalMagic[:], 0); err != nil {
			return err
		}
		off := int64(len(journalMagic))
		for i, e := range entries {
			lens[i] = e.n
			var err error
			if e.n == 0 {
				_, lens[i], err = writeFrame(tmp, off, e.key, e.status, e.body)
			} else {
				_, err = io.Copy(io.NewOffsetWriter(tmp, off), io.NewSectionReader(old, e.off, int64(e.n)))
			}
			if err != nil {
				return err
			}
			off += int64(lens[i])
		}
		return nil
	})
	if err != nil {
		return err
	}
	j.size, j.frames = int64(len(journalMagic)), len(entries)
	for i, e := range entries {
		e.off, e.n = j.size, lens[i]
		j.size += int64(lens[i])
	}
	st.mCompactions.Inc()
	return nil
}

// restoreJournal rebuilds a restored session's table from the journal's
// index and compacts the file if the walk shows it is due.
func (st *sessionStore) restoreJournal(j *journal, t *idemTable) {
	j.mu.Lock()
	defer j.mu.Unlock()
	for _, f := range st.indexJournal(j) {
		t.insert(f)
	}
	st.compactIfDue(j, t)
}

// compactIfDue compacts the journal when it holds anything but exactly the
// table's completed records: the IdemCap window dropped a key, a key was
// journaled twice, or an append had degraded and its record lives only in
// memory. In the common case — the file already equals the table — nothing
// is read or written. Caller holds j.mu.
func (st *sessionStore) compactIfDue(j *journal, t *idemTable) {
	entries := t.completedEntries()
	onDisk := 0
	for _, e := range entries {
		if e.n > 0 {
			onDisk++
		}
	}
	if j.frames == onDisk && onDisk == len(entries) {
		return
	}
	if err := st.compactJournal(j, entries); err != nil {
		st.logger.Warn("idempotency journal compaction failed", "session", j.id, "error", err.Error())
	}
}

// responseRecorder buffers a handler's response so the idempotency layer can
// journal it before release and replay it to retries. Only the status and
// body are captured; Content-Type is reconstructed on replay (all recordable
// fastd responses are JSON). Small bodies (errors) arrive through Write and
// are copied; a rendered ciphertext body is handed over whole by sendRendered
// and becomes the recorded body without a copy.
type responseRecorder struct {
	header http.Header
	status int
	body   []byte
}

func newResponseRecorder() *responseRecorder {
	return &responseRecorder{header: make(http.Header), status: http.StatusOK}
}

func (rr *responseRecorder) Header() http.Header { return rr.header }

func (rr *responseRecorder) WriteHeader(status int) { rr.status = status }

func (rr *responseRecorder) Write(p []byte) (int, error) {
	rr.body = append(rr.body, p...)
	return len(p), nil
}

// recordable reports whether the captured outcome is deterministic and safe
// to pin to the key forever: success (200) and validation rejections (400/404)
// would recur on any retry. Transient admission/ladder outcomes (429, 503,
// 504, 408, 500) must NOT be recorded — the whole point of the client's retry
// is that they can succeed next time.
func (rr *responseRecorder) recordable() bool {
	switch rr.status {
	case http.StatusOK, http.StatusBadRequest, http.StatusNotFound:
		return true
	}
	return false
}
