package main

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	fast "github.com/fastfhe/fast"
	"github.com/fastfhe/fast/internal/obs"
	sessreg "github.com/fastfhe/fast/internal/session"
	shardpkg "github.com/fastfhe/fast/internal/shard"
)

// Session lifecycle: create → (snapshot) → serve ⇄ evict/restore → expire,
// across N shards. The states and the legal moves between them are
// internal/session's table; this file is the slow half — the disk reads,
// key expansion and snapshot writes that happen between two registry calls.
//
// Transitions are lazy and request-driven: nothing is restored at startup
// (scan() only recovers IDs), the first request for a persisted session pays
// the restore, and eviction is triggered by create/restore overshoot or the
// idle sweeper. Restores are singleflighted per ID — a stampede of requests
// for one cold session performs one deserialisation.
//
// A session is served through whichever shard currently HOLDS it, which is
// the ring-routed shard in steady state but may be a survivor after its home
// shard was fenced (and stays the survivor after an unfence, until eviction
// lets it drift home). Routing by ring alone would either lose track of
// failed-over residents or snap them back across shards mid-request.

// errUnknownSession is the typed miss for a session ID with no resident
// entry, no snapshot and no tombstone — mapped to 404 by the error ladder.
var errUnknownSession = errors.New("unknown session")

// resolve maps a session ID to (holding shard, session). The resident path is
// one registry call; a persisted ID pays a singleflighted restore onto its
// ring-routed live shard.
func (d *daemon) resolve(id string) (*evalShard, *session, error) {
	for {
		v := d.sessions.Acquire(id)
		switch v.State {
		case sessreg.Resident:
			return d.shards[v.Shard], v.Payload, nil
		case sessreg.Corrupt:
			return nil, nil, fmt.Errorf("session %q: %w", id, fast.ErrCorruptSnapshot)
		case sessreg.Restoring:
			<-v.Wait // another request is already restoring; wait and look again
		case sessreg.Persisted:
			// Restore lands on the ring-routed shard — the canonical home among
			// the currently-live members (after a fence this is a survivor; after
			// an unfence it is the original home again).
			sh, err := d.route(id)
			if err != nil {
				return nil, nil, err
			}
			if d.sessions.BeginRestore(id, sh.id) {
				s, err := d.restoreInto(sh, id)
				return sh, s, err
			}
		default: // Absent — or Reserved: a create that has not answered yet
			return nil, nil, fmt.Errorf("%w %q", errUnknownSession, id)
		}
	}
}

func (d *daemon) shardDown(id string) error {
	d.mShardDown.Inc()
	return fmt.Errorf("session %q: %w", id, shardpkg.ErrShardDown)
}

// restoreInto runs the restore this request claimed and publishes its result.
func (d *daemon) restoreInto(sh *evalShard, id string) (*session, error) {
	s, durable, err := d.restoreSession(sh, id) // disk + NTT tables; never under the registry lock
	if err != nil {
		// A corrupt file leaves a tombstone: it stays on disk for forensics
		// but the ID will never be restored — wrong decrypts are impossible.
		corrupt := errors.Is(err, fast.ErrCorruptSnapshot)
		d.sessions.Abandon(id, corrupt)
		if corrupt {
			d.mCorrupt.Inc()
		}
		d.logger.Warn("session restore failed", "session", id, "error", err.Error())
		return nil, err
	}
	switch d.sessions.Publish(id, s, durable) {
	case sessreg.Resident:
		d.mRestored.Inc()
		d.logger.Info("session restored", "session", id, "shard", sh.id, "restores", s.meta.Restores)
		d.enforceResident(sh)
		return s, nil
	case sessreg.Persisted:
		// The shard was fenced while the restore ran. The restored context is
		// discarded; the retry restores on a survivor.
		return nil, d.shardDown(id)
	default:
		// Deleted while the restore ran. The restore may have written an epoch
		// sidecar after the delete unlinked the session's files: unlink again.
		d.store.remove(id)
		return nil, fmt.Errorf("%w %q", errUnknownSession, id)
	}
}

// restoreSession rebuilds one session from disk at the cost of one snapshot
// read plus one small read per journal frame:
//
//   - the snapshot is read and its full SHA-256 verified (every restore), and
//     the restore epoch is taken as 1 + max(snapshot header, epoch sidecar) —
//     a fresh encryptor randomness epoch, because a restored session must
//     never replay pre-crash encryption randomness;
//   - keys are expanded against the deterministically recompiled parameters;
//   - the idempotency table is rebuilt from the journal's index (keys and
//     frame extents, no bodies), and the journal is compacted only if the
//     walk found more than the table's bounded window holds;
//   - the new epoch is made durable in the sidecar — the snapshot itself is
//     not rewritten — BEFORE the session is returned, so the next crash also
//     lands on a fresh epoch. If that write degrades the session still serves,
//     not durable, and the next evict re-persists it whole.
func (d *daemon) restoreSession(sh *evalShard, id string) (s *session, durable bool, err error) {
	st := d.store
	t0 := time.Now()
	snap, err := st.loadSnapshot(id)
	if err != nil {
		return nil, false, err
	}
	sidecar, err := st.loadEpoch(id)
	if err != nil {
		return nil, false, err
	}
	snap.Meta.Restores = 1 + max(snap.Meta.Restores, sidecar)
	st.mSnapshotLoad.ObserveSince(t0)

	t0 = time.Now()
	fctx, err := snap.Restore(d.sessionOptions(id, sh)...)
	if err != nil {
		return nil, false, err
	}
	st.mExpand.ObserveSince(t0)

	sess := d.newSession(fctx, snap.Config.LogN, snap.Meta)
	t0 = time.Now()
	st.restoreJournal(sess.journal, sess.idem)
	st.mJournalIndex.ObserveSince(t0)

	t0 = time.Now()
	durable = st.saveEpoch(id, sess.meta.Restores) == nil
	st.mEpochWrite.ObserveSince(t0)
	return sess, durable, nil
}

// enforceResident evicts least-recently-used sessions from one shard until
// its resident count is within its slice of MaxResident. Called after every
// create and restore on that shard.
func (d *daemon) enforceResident(sh *evalShard) {
	if d.store == nil {
		return
	}
	for {
		victim, over := d.sessions.Victim(sh.id)
		if !over || !d.evictSession(victim) {
			return // victim unpersistable: durability beats the memory bound
		}
	}
}

// evictSession releases one resident session to disk: snapshot if the disk
// does not already describe it, journal compaction if the file holds more
// than the bounded in-memory window (usually it does not, and nothing is
// written), then the registry's resident→persisted move and plan-cache drop.
// Returns false when the session could not be persisted — losing key
// material to enforce a memory bound is never acceptable, so the session
// stays resident (counted via fastd.store.write_failures).
func (d *daemon) evictSession(v sessreg.View[*session]) bool {
	defer d.store.mEvict.ObserveSince(time.Now())
	victim := v.Payload
	if !v.Durable && d.store.saveSnapshot(victim.ctx, victim.meta) != nil {
		return false
	}
	victim.journal.mu.Lock()
	d.store.compactIfDue(victim.journal, victim.idem)
	victim.journal.mu.Unlock()

	if !d.sessions.Evict(v.ID, victim) {
		return true // a concurrent evict, delete or fence already claimed it
	}
	d.mPlanEvicted.Add(uint64(victim.plans.drop()))
	d.mEvicted.Inc()
	d.logger.Info("session evicted", "session", v.ID, "shard", v.Shard)
	return true
}

// sweepIdle is the idle-TTL loop: sessions untouched for SessionTTL are
// evicted to disk. Restore on next use is transparent (modulo latency), so
// the TTL reclaims key-set memory from abandoned keyspaces without a
// client-visible expiry.
func (d *daemon) sweepIdle() {
	defer close(d.sweepDone)
	interval := d.cfg.SessionTTL / 4
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-d.sweepStop:
			return
		case <-tick.C:
		}
		for _, v := range d.sessions.Idle(time.Now().Add(-d.cfg.SessionTTL)) {
			d.evictSession(v)
		}
	}
}

// ---- Idempotent replay -----------------------------------------------------

// withIdempotency gives mutating endpoints exactly-once semantics keyed by
// the client's Idempotency-Key header:
//
//   - the first request for a key executes and its deterministic outcome
//     (200/400/404) is journaled — fsync'd — BEFORE the response is released;
//   - concurrent duplicates coalesce onto the first execution and replay its
//     outcome (marked Idempotency-Replayed: true);
//   - retries after a daemon crash replay from the journal rebuilt on session
//     restore: ordering guarantees a recorded response was durable first, so
//     "client saw a reply" implies "a retry replays that same reply";
//   - transient ladder outcomes (429/503/504/408/500) are never recorded —
//     the retry they invite must re-execute.
//
// Requests without the header bypass the table entirely.
func (d *daemon) withIdempotency(w http.ResponseWriter, r *http.Request, sess *session, h func(w http.ResponseWriter)) {
	key := r.Header.Get("Idempotency-Key")
	if key == "" {
		h(w)
		return
	}
	for {
		e, owner := sess.idem.begin(key)
		if !owner {
			select {
			case <-e.done:
			case <-r.Context().Done():
				d.writeAdmissionError(w, r, fmt.Errorf("awaiting idempotent duplicate: %w", fast.ErrCanceled))
				return
			}
			if e.status == 0 {
				continue // original execution was abandoned (transient): retry owns it now
			}
			body := e.body
			if body == nil && sess.journal != nil {
				// Index-only entry of a restored session: fetch the body now.
				var ok bool
				if body, ok = d.store.readBody(sess.journal, e); !ok {
					// Never serve an unverifiable record: it is no record.
					d.store.mCRCMismatch.Inc()
					d.logger.Warn("idempotency journal record failed verification; re-executing", "session", sess.id, "key", key)
					sess.idem.forget(e)
					continue
				}
			}
			d.mIdemReplays.Inc()
			obs.RequestFrom(r.Context()).SetOutcome("idem_replay")
			w.Header().Set("Content-Type", jsonContentType)
			w.Header().Set("Idempotency-Replayed", "true")
			writeRecorded(w, e.status, body)
			return
		}

		rr := newResponseRecorder()
		h(rr)
		if rr.recordable() {
			d.recordIdem(sess, e, rr)
			d.mIdemRecorded.Inc()
		} else {
			sess.idem.abandon(e)
		}
		for k, vs := range rr.header {
			for _, v := range vs {
				w.Header().Add(k, v)
			}
		}
		writeRecorded(w, rr.status, rr.body)
		return
	}
}

// writeRecorded releases a recorded outcome — first answer or replay — with
// its Content-Length, in one Write.
func writeRecorded(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// recordIdem journals a recordable outcome and completes its table entry.
// Durability BEFORE release: the frame is fsync'd before complete() lets the
// owner or any waiter observe the response, so a post-crash retry finds its
// record. Append and complete happen under the journal's mutex so that a
// compaction never sees the frame without the entry that owns it.
func (d *daemon) recordIdem(sess *session, e *idemEntry, rr *responseRecorder) {
	if sess.journal == nil {
		sess.idem.complete(e, rr.status, rr.body, 0, 0)
		return
	}
	sess.journal.mu.Lock()
	defer sess.journal.mu.Unlock()
	off, n := d.store.appendFrameRetry(sess.journal, e.key, rr.status, rr.body)
	sess.idem.complete(e, rr.status, rr.body, off, n)
}
