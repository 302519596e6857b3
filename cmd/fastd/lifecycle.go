package main

import (
	"errors"
	"fmt"
	"os"
	"time"

	fast "github.com/fastfhe/fast"
	sessreg "github.com/fastfhe/fast/internal/session"
)

// Session lifecycle: create → (snapshot) → serve ⇄ evict/restore → delete,
// across N shards. The states and the legal moves between them are
// internal/session's table; this file is the slow half — the disk reads,
// keygen and snapshot writes that happen between two registry calls.
//
// Transitions are lazy and request-driven: nothing is restored at startup
// (scan() only recovers IDs), the first request for a persisted session pays
// the restore, and the one eviction trigger is resident pressure: a create
// or restore that takes a shard past its -max-resident-sessions slice evicts
// that shard's least-recently-used session. Restores are singleflighted per
// ID — a stampede of requests for one cold session performs one
// deserialisation.
//
// A session is served through whichever shard currently HOLDS it: the shard
// the registry placed it on at its create or latest restore. Once a session
// is resident, its requests never move it; a restore is placed anew, on a
// survivor if its old shard was killed.

// errUnknownSession is the typed miss for a session ID with no resident
// entry, no snapshot and no tombstone — mapped to 404 by the error ladder.
var errUnknownSession = errors.New("unknown session")

// errEpochUnwritten is a restore whose new epoch could not be made durable —
// mapped to 503 by the error ladder.
var errEpochUnwritten = errors.New("restore epoch not durable")

// resolve maps a session ID to (holding shard, session). The resident path is
// one registry call; a persisted ID pays a singleflighted restore onto the
// live shard the registry picks for it.
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
			idem := d.idemTable(id) // before the claim: a DELETE after it drops this table
			i, ok, err := d.sessions.BeginRestore(id)
			if err != nil {
				return nil, nil, d.shardDown(id)
			}
			if ok {
				sh := d.shards[i]
				s, err := d.restoreInto(sh, idem)
				return sh, s, err
			}
		default: // Absent — or Reserved: a create that has not answered yet
			return nil, nil, fmt.Errorf("%w %q", errUnknownSession, id)
		}
	}
}

func (d *daemon) shardDown(id string) error {
	d.mShardDown.Inc()
	return fmt.Errorf("session %q: %w", id, sessreg.ErrShardDown)
}

// restoreInto runs the restore this request claimed and publishes its result.
func (d *daemon) restoreInto(sh *evalShard, idem *idemTable) (*session, error) {
	id := idem.id
	s, err := d.restoreSession(sh, idem) // disk + keygen; never under the registry lock
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
	switch d.sessions.Publish(id, s, true) {
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
		// Deleted while the restore ran; its snapshot write, if any, ran
		// before the delete's unlinks (idemTable.persist).
		return nil, fmt.Errorf("%w %q", errUnknownSession, id)
	}
}

// restoreSession rebuilds one session from its snapshot (the idempotency
// ring is not read):
//
//   - the snapshot is read and its full SHA-256 verified (every restore), and
//     the restore epoch is 1 + the header's — a fresh encryptor randomness
//     epoch: a restored session must never replay pre-crash encryption
//     randomness;
//   - keys are regenerated from the header's config (compiled if unshared);
//   - the snapshot is rewritten with the new epoch BEFORE the session is
//     returned, so the next crash lands on a fresh epoch too; if that write
//     fails, so does the restore (errEpochUnwritten), never serving an epoch
//     the .snap does not hold.
func (d *daemon) restoreSession(sh *evalShard, idem *idemTable) (*session, error) {
	st, id := d.store, idem.id
	t0 := time.Now()
	data, err := os.ReadFile(st.snapshotPath(id))
	if err != nil {
		return nil, err
	}
	snap, err := fast.DecodeSessionSnapshot(data)
	if err != nil {
		return nil, err
	}
	snap.Meta.Restores++
	st.mSnapshotLoad.ObserveSince(t0)

	t0 = time.Now()
	fctx, err := snap.Restore(d.sessionOptions(id, sh)...)
	if err != nil {
		return nil, err
	}
	st.mExpand.ObserveSince(t0)

	sess := d.newSession(fctx, snap.Meta, idem)
	defer st.mEpochWrite.ObserveSince(time.Now())
	if err := sess.save("epoch"); err != nil && !errors.Is(err, errDeleted) { // a DELETE is Publish's to see
		return nil, fmt.Errorf("session %q: %w: %v", id, errEpochUnwritten, err)
	}
	return sess, nil
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
// does not already describe it, then the registry's resident→persisted move
// and plan-cache drop. Returns false when the session could not be persisted
// — losing a session to enforce a memory bound is never acceptable, so the
// session stays resident (counted via fastd.store.write_failures).
func (d *daemon) evictSession(v sessreg.View[*session]) bool {
	defer d.store.mEvict.ObserveSince(time.Now())
	victim := v.Payload
	if !v.Durable {
		if err := victim.save("snap"); err != nil {
			return errors.Is(err, errDeleted) // a DELETE claimed it: nothing to evict
		}
	}
	if !d.sessions.Evict(v.ID, victim) {
		return true // a concurrent evict, delete or fence already claimed it
	}
	d.mPlanEvicted.Add(uint64(victim.plans.drop()))
	d.mEvicted.Inc()
	d.logger.Info("session evicted", "session", v.ID, "shard", v.Shard)
	return true
}
