package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"sync"

	fast "github.com/fastfhe/fast"
	"github.com/fastfhe/fast/internal/fault"
	"github.com/fastfhe/fast/internal/obs"
)

// sessionStore is fastd's crash-safe persistence layer. Each session owns up
// to three files in the state dir:
//
//	<id>.snap   the fast.SessionSnapshot wire format (versioned, SHA-256
//	            checksummed key material). Written once on create and never
//	            touched by a restore; rewritten only when an evicted session
//	            is dirty (an earlier durability write had degraded).
//	<id>.epoch  the restore epoch sidecar: 8-byte counter + CRC-32C. Bumped on
//	            every restore so the 10 MB key payload does not have to be.
//	<id>.idem   the framed idempotency journal (idem.go).
//
// Every write is made durable before it is relied on:
//
//   - snapshots, epochs and compacted journals are written to a temp file,
//     fsync'd, atomically renamed into place, and the directory fsync'd — a
//     crash at any point leaves either the old file or the new one, never a
//     torn one;
//   - journal appends are fsync'd before the response that depends on them
//     is released to the client.
//
// Corruption is detected, never trusted: a snapshot or epoch that fails its
// checksum is skipped with a typed error (fast.ErrCorruptSnapshot) and
// counted — a wrong decrypt from a torn or bit-flipped file, or a silent
// reset to an already-used randomness epoch, is structurally impossible.
//
// The store consults a fault.Injector (DiskWrite kind) so the chaos suite
// can exercise the degraded path: a failed durability write is retried once,
// then the session is served resident-only and the failure counted.
type sessionStore struct {
	dir    string
	inj    *fault.Injector
	logger *slog.Logger

	// hook, when set, is called at every durability boundary (before the
	// named step runs). Tests use it to capture the state dir exactly as a
	// SIGKILL at that instant would leave it, or to fail the step.
	hook func(point string) error

	// journals holds the writer state of each session's journal file. It is
	// owned by the store, not the session, so that a request still finishing
	// on an evicted session object and the session's next restore serialise
	// on one append offset instead of clobbering each other's frames.
	mu       sync.Mutex
	journals map[string]*journal

	mWriteFailures *obs.Counter // fastd.store.write_failures (post-retry)
	mWriteFaults   *obs.Counter // fastd.store.write_faults (injected)

	// Restore/evict phase timings: the restore histograms partition
	// restoreSession, so their sums reconcile with the restore latency a
	// client sees (minus the evict the restore may trigger, which has its own).
	mSnapshotLoad *obs.Histogram // fastd.restore.snapshot_load_ns: read + SHA-256 + header decode
	mExpand       *obs.Histogram // fastd.restore.expand_ns: ring tables + key deserialise
	mJournalIndex *obs.Histogram // fastd.restore.journal_index_ns: frame walk (+ compaction when due)
	mEpochWrite   *obs.Histogram // fastd.restore.epoch_write_ns: sidecar tmp+fsync+rename+dir-fsync
	mEvict        *obs.Histogram // fastd.evict_ns

	mCompactions   *obs.Counter // fastd.idem.compactions
	mTornTruncated *obs.Counter // fastd.idem.torn_truncated
	mCRCMismatch   *obs.Counter // fastd.idem.crc_mismatch
}

const (
	snapSuffix  = ".snap"
	idemSuffix  = ".idem"
	epochSuffix = ".epoch"
	tmpInfix    = ".tmp."
)

// errInjectedDiskWrite is the synthetic error of a DiskWrite fault.
var errInjectedDiskWrite = errors.New("fastd: injected disk-write fault")

var crc32c = crc32.MakeTable(crc32.Castagnoli)

func openSessionStore(dir string, inj *fault.Injector, reg *obs.Registry, logger *slog.Logger) (*sessionStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("fastd: state dir: %w", err)
	}
	st := &sessionStore{dir: dir, inj: inj, logger: logger, journals: map[string]*journal{}}
	if reg != nil {
		st.mWriteFailures = reg.Counter("fastd.store.write_failures")
		st.mWriteFaults = reg.Counter("fastd.store.write_faults")
		st.mSnapshotLoad = reg.Histogram("fastd.restore.snapshot_load_ns")
		st.mExpand = reg.Histogram("fastd.restore.expand_ns")
		st.mJournalIndex = reg.Histogram("fastd.restore.journal_index_ns")
		st.mEpochWrite = reg.Histogram("fastd.restore.epoch_write_ns")
		st.mEvict = reg.Histogram("fastd.evict_ns")
		st.mCompactions = reg.Counter("fastd.idem.compactions")
		st.mTornTruncated = reg.Counter("fastd.idem.torn_truncated")
		st.mCRCMismatch = reg.Counter("fastd.idem.crc_mismatch")
	}
	return st, nil
}

func (st *sessionStore) snapshotPath(id string) string { return filepath.Join(st.dir, id+snapSuffix) }
func (st *sessionStore) idemPath(id string) string     { return filepath.Join(st.dir, id+idemSuffix) }
func (st *sessionStore) epochPath(id string) string    { return filepath.Join(st.dir, id+epochSuffix) }

// scan recovers the session IDs with a snapshot on disk and sweeps what a
// crash can leave behind: temp files of an interrupted atomic write (nothing
// references them, and a snapshot temp is as large as the key set), and
// journals or epochs with no snapshot (a crash inside remove, or a journal
// appended for a session whose create-time snapshot write had degraded) —
// `nextID` is recomputed from this scan, so a later session reusing the ID
// must not inherit a stranger's replay records or epoch.
func (st *sessionStore) scan() ([]string, error) {
	entries, err := os.ReadDir(st.dir)
	if err != nil {
		return nil, err
	}
	var ids []string
	snaps := map[string]bool{}
	for _, e := range entries {
		if name := e.Name(); !e.IsDir() && strings.HasSuffix(name, snapSuffix) {
			id := strings.TrimSuffix(name, snapSuffix)
			ids = append(ids, id)
			snaps[id] = true
		}
	}
	swept := 0
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() {
			continue
		}
		id, isSidecar := strings.CutSuffix(name, idemSuffix)
		if !isSidecar {
			id, isSidecar = strings.CutSuffix(name, epochSuffix)
		}
		if strings.Contains(name, tmpInfix) || (isSidecar && !snaps[id]) {
			if err := os.Remove(filepath.Join(st.dir, name)); err != nil {
				return nil, err
			}
			swept++
		}
	}
	if swept > 0 {
		st.logger.Info("state dir swept", "dir", st.dir, "crash_leftovers", swept)
		if err := st.syncDir(); err != nil {
			return nil, err
		}
	}
	return ids, nil
}

// at announces a durability boundary to the test hook.
func (st *sessionStore) at(point string) error {
	if st.hook == nil {
		return nil
	}
	return st.hook(point)
}

// checkFault surfaces an injected DiskWrite fault as a write error.
func (st *sessionStore) checkFault() error {
	if st.inj.DiskWriteFails() {
		st.mWriteFaults.Inc()
		return errInjectedDiskWrite
	}
	return nil
}

// retry is the store's recovery policy for a durability write: retry once,
// then count and report the failure. Callers decide whether a failure
// degrades (resident-only session) or aborts (nothing to serve without it).
func (st *sessionStore) retry(what, id string, write func() error) error {
	err := write()
	if err == nil {
		return nil
	}
	if err = write(); err == nil {
		return nil
	}
	st.mWriteFailures.Inc()
	st.logger.Warn(what+" write failed", "session", id, "error", err.Error())
	return err
}

// step runs one step of a durability write behind its hook point, unless an
// earlier step already failed.
func (st *sessionStore) step(err *error, point string, do func() error) {
	if *err == nil {
		*err = st.at(point)
	}
	if *err == nil {
		*err = do()
	}
}

// writeAtomic replaces final with whatever fill writes: temp file, fsync,
// atomic rename, directory fsync. what names the write in the hook points
// (<what>.create-tmp, .write, .fsync, .rename, .dir-fsync).
func (st *sessionStore) writeAtomic(final, what string, fill func(*os.File) error) error {
	err := st.checkFault()
	var tmp *os.File
	st.step(&err, what+".create-tmp", func() (err error) {
		tmp, err = os.CreateTemp(st.dir, filepath.Base(final)+tmpInfix+"*")
		return err
	})
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after successful rename
	st.step(&err, what+".write", func() error { return fill(tmp) })
	st.step(&err, what+".fsync", tmp.Sync)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	st.step(&err, what+".rename", func() error { return os.Rename(tmp.Name(), final) })
	st.step(&err, what+".dir-fsync", st.syncDir)
	return err
}

// saveSnapshot durably persists the session's full state under its ID. The
// write-ahead ordering (snapshot before the create response, journal append
// before the eval response) is what makes a SIGKILL at any instant
// recoverable.
func (st *sessionStore) saveSnapshot(fctx *fast.Context, meta fast.SessionMeta) error {
	return st.retry("session snapshot", meta.ID, func() error {
		return st.writeAtomic(st.snapshotPath(meta.ID), "snap", func(tmp *os.File) error {
			return fctx.WriteSessionSnapshot(tmp, meta)
		})
	})
}

// loadSnapshot reads and checksum-verifies a session snapshot (the full
// SHA-256, on every restore). Key material is not expanded yet — the caller
// sets the restore epoch first, then Restore()s.
func (st *sessionStore) loadSnapshot(id string) (*fast.SessionSnapshot, error) {
	data, err := os.ReadFile(st.snapshotPath(id))
	if err != nil {
		return nil, err
	}
	return fast.DecodeSessionSnapshot(data)
}

// epochLen is the sidecar's size: little-endian uint64 counter + CRC-32C.
const epochLen = 8 + 4

// saveEpoch durably records the restore epoch a session is about to serve
// under. The caller publishes the restored Context only after this returns.
func (st *sessionStore) saveEpoch(id string, epoch uint64) error {
	var buf [epochLen]byte
	binary.LittleEndian.PutUint64(buf[:8], epoch)
	binary.LittleEndian.PutUint32(buf[8:], crc32.Checksum(buf[:8], crc32c))
	return st.retry("restore epoch", id, func() error {
		return st.writeAtomic(st.epochPath(id), "epoch", func(tmp *os.File) error {
			_, err := tmp.Write(buf[:])
			return err
		})
	})
}

// loadEpoch returns the sidecar's epoch, 0 when the session has never been
// restored. A sidecar that is present but unreadable is corruption, not
// absence: falling back to the snapshot header's epoch would replay
// encryption randomness an earlier restore already used.
func (st *sessionStore) loadEpoch(id string) (uint64, error) {
	buf, err := os.ReadFile(st.epochPath(id))
	if errors.Is(err, fs.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	if len(buf) != epochLen || binary.LittleEndian.Uint32(buf[8:]) != crc32.Checksum(buf[:8], crc32c) {
		return 0, fmt.Errorf("fastd: restore epoch sidecar of %q failed its checksum: %w", id, fast.ErrCorruptSnapshot)
	}
	return binary.LittleEndian.Uint64(buf[:8]), nil
}

// remove deletes a session's files (best-effort; a missing file is not an
// error). The snapshot goes first and its unlink is made durable before the
// sidecars follow: a crash in between leaves sidecars without a snapshot,
// which scan sweeps, never a snapshot stripped of its epoch.
func (st *sessionStore) remove(id string) {
	st.mu.Lock()
	delete(st.journals, id)
	st.mu.Unlock()
	for _, step := range [][]string{{st.snapshotPath(id)}, {st.idemPath(id), st.epochPath(id)}} {
		for _, p := range step {
			if err := os.Remove(p); err != nil && !errors.Is(err, fs.ErrNotExist) {
				st.logger.Warn("session state remove failed", "session", id, "path", p, "error", err.Error())
			}
		}
		_ = st.syncDir()
	}
}

// syncDir fsyncs the state directory so renames and unlinks are durable.
func (st *sessionStore) syncDir() error {
	d, err := os.Open(st.dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
