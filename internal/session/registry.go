// Package session is fastd's session placement registry: which session IDs
// exist, what state each is in, which shard holds it and in what order a
// shard's residents were last used — one map under one mutex.
//
// The registry only moves entries between states. Everything slow (keygen,
// disk I/O, key expansion) is the caller's, done between two registry calls
// with the lock released: the registry holds no store, calls no callback and
// knows nothing of its payload P but its identity, so a test can drive every
// interleaving of the lifecycle without a key in sight. DESIGN.md ("Session
// lifecycle") has the prose; the table below is what is enforced.
package session

import (
	"fmt"
	"sync"
	"time"

	"github.com/fastfhe/fast/internal/lru"
)

// State is where a session ID is in its lifecycle.
type State uint8

const (
	Absent    State = iota // no entry: never created, or deleted (an ID is never reused)
	Reserved               // a create holds the slot while its keygen runs
	Resident               // payload live in memory on exactly one shard
	Persisted              // on disk only: evicted, fenced off its shard, or not restored since a restart
	Restoring              // one request is faulting it in from disk; the others wait on it
	Corrupt                // tombstone: its files failed validation; holds no MaxSessions slot
	numStates
)

func (s State) String() string {
	return [...]string{"absent", "reserved", "resident", "persisted", "restoring", "corrupt"}[s]
}

// edges is the session lifecycle, whole; move checks every transition
// against it and nothing else changes an entry's state.
//
//	Absent    → Reserved   create admitted       → Persisted  found on disk at startup
//	Reserved  → Resident   published             → Persisted  shard fenced during keygen, snapshot durable
//	          → Absent     create failed, or fenced with nothing durable (lost)
//	Resident  → Persisted  evicted, or fenced    → Absent     deleted, or fenced while not durable (lost)
//	Persisted → Restoring  first request         → Absent     deleted
//	Restoring → Resident   restored              → Persisted  shard fenced meanwhile, or a read error
//	          → Corrupt    failed validation     → Absent     deleted while the restore ran: its result is discarded
//	Corrupt   → Absent     deleted
var edges = [numStates][numStates]bool{
	Absent:    {Reserved: true, Persisted: true},
	Reserved:  {Resident: true, Persisted: true, Absent: true},
	Resident:  {Persisted: true, Absent: true},
	Persisted: {Restoring: true, Absent: true},
	Restoring: {Resident: true, Persisted: true, Corrupt: true, Absent: true},
	Corrupt:   {Absent: true},
}

type entry[P comparable] struct {
	id       string
	state    State
	shard    int  // holds a Resident entry; where Publish will put a Reserved or Restoring one
	payload  P    // Resident only
	durable  bool // Resident only: the disk describes the session (an evict need not re-save it, a fence does not lose it)
	lastUsed time.Time
	wait     chan struct{} // Restoring only: closed when the restore resolves
}

type shardState[P comparable] struct {
	fenced      bool
	maxResident int
	order       *lru.Map[*entry[P]] // this shard's residents by recency, which is lastUsed order
}

// Registry is safe for concurrent use.
type Registry[P comparable] struct {
	mu      sync.Mutex
	max     int
	entries map[string]*entry[P] // every ID not Absent
	count   [numStates]int
	shards  []shardState[P]
	now     func() time.Time
}

// New returns an empty registry admitting maxSessions sessions (every state
// but Corrupt holds a slot) over len(maxResident) shards, shard i evicting
// past maxResident[i] residents.
func New[P comparable](maxSessions int, maxResident []int) *Registry[P] {
	r := &Registry[P]{max: maxSessions, entries: map[string]*entry[P]{}, now: time.Now}
	for _, m := range maxResident {
		r.shards = append(r.shards, shardState[P]{maxResident: m, order: lru.New[*entry[P]]()})
	}
	return r
}

func (r *Registry[P]) move(e *entry[P], to State) {
	if !edges[e.state][to] || (e.state == Absent && r.entries[e.id] != nil) {
		panic(fmt.Sprintf("session: illegal transition %v -> %v of %q", e.state, to, e.id))
	}
	switch e.state {
	case Absent:
		r.entries[e.id] = e
	case Resident:
		r.shards[e.shard].order.Delete(e.id)
		var none P
		e.payload = none
	case Restoring:
		close(e.wait)
		e.wait = nil
	}
	r.count[e.state]--
	r.count[to]++
	e.state = to
	switch to {
	case Absent:
		delete(r.entries, e.id)
	case Resident:
		r.shards[e.shard].order.Put(e.id, e)
	case Restoring:
		e.wait = make(chan struct{})
	}
}

// View is a copy of one entry as a call found (or left) it.
type View[P comparable] struct {
	ID      string
	State   State
	Shard   int
	Payload P
	Durable bool
	Wait    <-chan struct{} // Restoring: closed when the restore resolves
}

func (e *entry[P]) view() View[P] {
	return View[P]{ID: e.id, State: e.state, Shard: e.shard, Payload: e.payload, Durable: e.durable, Wait: e.wait}
}

// Adopt registers the IDs found on disk at startup as Persisted. They may
// exceed maxSessions (a limit lowered across a restart): only creates mind.
func (r *Registry[P]) Adopt(ids []string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, id := range ids {
		r.move(&entry[P]{id: id}, Persisted)
	}
}

// Reserve takes a slot for a create bound for shard, BEFORE its keygen — or N
// concurrent creates all pass the check and overshoot the bound. False: the
// limit is reached. Finish with Publish or Abandon.
func (r *Registry[P]) Reserve(id string, shard int) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.entries)-r.count[Corrupt] >= r.max {
		return false
	}
	r.move(&entry[P]{id: id, shard: shard}, Reserved)
	return true
}

// BeginRestore claims the restore of a Persisted session onto shard. False
// means id is not Persisted (any more): look again with Acquire.
func (r *Registry[P]) BeginRestore(id string, shard int) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.entries[id]
	if e == nil || e.state != Persisted {
		return false
	}
	e.shard = shard
	r.move(e, Restoring)
	return true
}

// Publish completes a create or a restore with the payload it built, and is
// the one place that checks the target shard is still live: both run long
// outside the lock, and Fence cannot see a session that is not Resident yet.
// It returns where the session landed. Resident. Persisted: the shard was
// fenced meanwhile and the disk holds the session (any restore; a create
// whose snapshot is durable), so the next request restores it on a survivor.
// Absent: deleted while the restore ran, or a fenced create with nothing
// durable. Unless Resident, the payload was not kept.
func (r *Registry[P]) Publish(id string, payload P, durable bool) State {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.entries[id]
	switch {
	case e == nil:
		return Absent
	case !r.shards[e.shard].fenced:
		e.payload, e.durable, e.lastUsed = payload, durable, r.now()
		r.move(e, Resident)
	case durable || e.state == Restoring:
		r.move(e, Persisted)
	default:
		r.move(e, Absent)
	}
	return e.state
}

// Abandon ends a create or restore that built no payload. A create gives its
// slot back. A restore leaves a Corrupt tombstone (a tombstone holds no keys,
// so the slot comes back too) or, after an error that says nothing about the
// files, goes back to Persisted. An ID deleted meanwhile stays deleted.
func (r *Registry[P]) Abandon(id string, corrupt bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.entries[id]
	switch {
	case e == nil:
	case e.state == Reserved:
		r.move(e, Absent)
	case e.state == Restoring && !corrupt:
		r.move(e, Persisted)
	default:
		r.move(e, Corrupt)
	}
}

// Acquire looks id up for a request and, if it is Resident, marks it used.
func (r *Registry[P]) Acquire(id string) View[P] {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.entries[id]
	if e == nil {
		return View[P]{ID: id}
	}
	if e.state == Resident {
		r.shards[e.shard].order.Get(id)
		e.lastUsed = r.now()
	}
	return e.view()
}

// Victim returns shard's least recently used resident while the shard holds
// more than its bound. The caller makes it durable and calls Evict.
func (r *Registry[P]) Victim(shard int) (v View[P], ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	sh := &r.shards[shard]
	if sh.order.Len() <= sh.maxResident {
		return v, false
	}
	sh.order.Oldest(func(_ string, e *entry[P]) bool {
		v = e.view()
		return false
	})
	return v, true
}

// Idle returns the residents not used since cutoff.
func (r *Registry[P]) Idle(cutoff time.Time) (idle []View[P]) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.shards {
		r.shards[i].order.Oldest(func(_ string, e *entry[P]) bool {
			if !e.lastUsed.Before(cutoff) {
				return false
			}
			idle = append(idle, e.view())
			return true
		})
	}
	return idle
}

// Evict moves a resident to Persisted once the caller has made the disk hold
// it. False: id no longer holds this payload — an evict, delete or fence got
// there first, or it was restored anew since (and that payload is unchecked).
func (r *Registry[P]) Evict(id string, payload P) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.entries[id]
	if e == nil || e.state != Resident || e.payload != payload {
		return false
	}
	r.move(e, Persisted)
	return true
}

// Delete removes id from whatever state it is in and returns that state, with
// the payload if Resident. A Reserved ID reads as Absent and is left alone:
// until its create answers there is no session to delete. A restore in
// flight is not interrupted; its Publish finds the ID gone.
func (r *Registry[P]) Delete(id string) (payload P, was State) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.entries[id]
	if e == nil || e.state == Reserved {
		return payload, Absent
	}
	payload, was = e.payload, e.state
	r.move(e, Absent)
	return payload, was
}

// Fence marks shard dead and empties it: durable residents become Persisted
// (their next request restores them on a live shard), the others are lost
// with it, as a SIGKILL would lose them. Until Unfence, Publish avoids it.
func (r *Registry[P]) Fence(shard int) (migrated, lost []P) {
	r.mu.Lock()
	defer r.mu.Unlock()
	sh := &r.shards[shard]
	sh.fenced = true
	sh.order.Oldest(func(_ string, e *entry[P]) bool {
		if e.durable {
			migrated = append(migrated, e.payload)
			r.move(e, Persisted)
		} else {
			lost = append(lost, e.payload)
			r.move(e, Absent)
		}
		return true
	})
	return migrated, lost
}

// Unfence lets Publish use shard again. Nothing moves back by itself.
func (r *Registry[P]) Unfence(shard int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.shards[shard].fenced = false
}

// Stats is the registry by the numbers /readyz and the gauges report.
type Stats struct {
	Occupancy     int   // slots held against maxSessions: every entry but the Corrupt
	Resident      int   // in memory, all shards
	Persisted     int   // on disk only, those being restored included
	ShardResident []int // Resident, per shard
}

func (r *Registry[P]) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := Stats{
		Occupancy:     len(r.entries) - r.count[Corrupt],
		Resident:      r.count[Resident],
		Persisted:     r.count[Persisted] + r.count[Restoring],
		ShardResident: make([]int, len(r.shards)),
	}
	for i := range r.shards {
		st.ShardResident[i] = r.shards[i].order.Len()
	}
	return st
}
