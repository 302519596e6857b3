package main

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"log/slog"
	"os"
	"path/filepath"
	"strings"

	"github.com/fastfhe/fast/internal/obs"
)

// sessionStore is fastd's crash-safe persistence layer. Each session owns up
// to two files in the state dir:
//
//	<id>.snap   the fast.SessionSnapshot wire format: resolved config and
//	            metadata with the restore epoch, SHA-256 checksummed, no keys
//	            (a restore regenerates them). Written on create, on every
//	            restore (the new epoch) and on the evict of a dirty session.
//	<id>.idem   the idempotency ring of digest records (idem.go).
//
// No other file is read, and scan sweeps only temp files and orphan rings.
//
// Every write runs under the ID's write guard (idemTable.persist) and is
// made durable before it is relied on:
//
//   - a snapshot is written to a temp file, fsync'd, atomically renamed into
//     place, and the directory fsync'd — a crash at any point leaves either
//     the old file or the new one, never a torn one;
//   - an idempotency record is fsync'd in its ring slot before the response
//     it records is released to the client.
//
// Corruption is detected, never trusted: a snapshot that fails its checksum,
// carries another format version, or holds a config that does not restore
// is skipped with a typed error (fast.ErrCorruptSnapshot), left on disk and
// counted — a wrong decrypt from a torn or bit-flipped file is structurally
// impossible.
//
// A failed durability write is retried once and counted; then a create or
// an evict serves the session resident-only, and a restore does not serve.
// Tests reach those paths through hook: an error returned at a write's hook
// point fails the write exactly as a full disk or an I/O error would.
type sessionStore struct {
	dir    string
	logger *slog.Logger

	// hook, when set, is called at every durability boundary (before the
	// named step runs). Tests use it to capture the state dir exactly as a
	// SIGKILL at that instant would leave it, or to fail the step.
	hook func(point string) error

	mWriteFailures *obs.Counter // fastd.store.write_failures (post-retry)

	// Restore/evict phase timings: the restore histograms partition
	// restoreSession, so their sums reconcile with the restore latency a
	// client sees (minus the evict the restore may trigger, which has its own).
	mSnapshotLoad *obs.Histogram // fastd.restore.snapshot_load_ns: read + SHA-256 + header decode
	mExpand       *obs.Histogram // fastd.restore.expand_ns: keygen (+ parameter compile if unshared)
	mEpochWrite   *obs.Histogram // fastd.restore.epoch_write_ns: .snap rewrite tmp+fsync+rename+dir-fsync
	mEvict        *obs.Histogram // fastd.evict_ns
}

const (
	snapSuffix = ".snap"
	idemSuffix = ".idem"
	tmpInfix   = ".tmp."
)

var crc32c = crc32.MakeTable(crc32.Castagnoli)

func openSessionStore(dir string, reg *obs.Registry, logger *slog.Logger) (*sessionStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("fastd: state dir: %w", err)
	}
	st := &sessionStore{dir: dir, logger: logger}
	if reg != nil {
		st.mWriteFailures = reg.Counter("fastd.store.write_failures")
		st.mSnapshotLoad = reg.Histogram("fastd.restore.snapshot_load_ns")
		st.mExpand = reg.Histogram("fastd.restore.expand_ns")
		st.mEpochWrite = reg.Histogram("fastd.restore.epoch_write_ns")
		st.mEvict = reg.Histogram("fastd.evict_ns")
	}
	return st, nil
}

func (st *sessionStore) snapshotPath(id string) string { return filepath.Join(st.dir, id+snapSuffix) }
func (st *sessionStore) idemPath(id string) string     { return filepath.Join(st.dir, id+idemSuffix) }

// scan recovers the session IDs with a snapshot on disk and sweeps what a
// crash can leave behind: temp files of an interrupted atomic write (nothing
// references them), and rings with no snapshot (a crash inside remove, or a
// ring written for a session whose create-time snapshot write had degraded)
// — `nextID` is recomputed from this scan, so a later session reusing the ID
// must not inherit a stranger's replay records.
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
		id, isRing := strings.CutSuffix(name, idemSuffix)
		if strings.Contains(name, tmpInfix) || (isRing && !snaps[id]) {
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

// save durably writes the session's snapshot under the ID's write guard,
// retried once. The write-ahead ordering (snapshot before the create
// response or the restored session's first use, idempotency record before
// the eval response) is what makes a SIGKILL at any instant recoverable.
func (s *session) save(what string) error {
	return s.idem.persist(func(st *sessionStore) error {
		return st.retry("session snapshot", s.id, func() error { return st.writeSnapshot(s, what) })
	})
}

// writeSnapshot replaces the session's .snap: temp file, fsync, atomic
// rename, directory fsync. what names the write in the hook points
// (<what>.create-tmp, .write, .fsync, .rename, .dir-fsync): "snap" for a
// create or a dirty evict, "epoch" for a restore, the write that makes its
// new epoch durable.
func (st *sessionStore) writeSnapshot(s *session, what string) (err error) {
	var tmp *os.File
	st.step(&err, what+".create-tmp", func() (err error) {
		tmp, err = os.CreateTemp(st.dir, s.id+snapSuffix+tmpInfix+"*")
		return err
	})
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after successful rename
	st.step(&err, what+".write", func() error { return s.ctx.WriteSessionSnapshot(tmp, s.meta) })
	st.step(&err, what+".fsync", tmp.Sync)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	st.step(&err, what+".rename", func() error { return os.Rename(tmp.Name(), st.snapshotPath(s.id)) })
	st.step(&err, what+".dir-fsync", st.syncDir)
	return err
}

// remove deletes a session's files (best-effort; a missing file is not an
// error). The snapshot goes first and its unlink is made durable before the
// ring follows: a crash in between leaves a ring without a snapshot, which
// scan sweeps.
func (st *sessionStore) remove(id string) {
	for _, p := range []string{st.snapshotPath(id), st.idemPath(id)} {
		if err := os.Remove(p); err != nil && !errors.Is(err, fs.ErrNotExist) {
			st.logger.Warn("session state remove failed", "session", id, "path", p, "error", err.Error())
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
