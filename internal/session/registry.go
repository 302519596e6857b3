// Package session is fastd's session placement registry: which session IDs
// exist, what state each is in, which shard holds it, which shards are
// fenced and in what order a shard's residents were last used — one map
// under one mutex. It is the only owner of placement: a create or restore
// asks it for a shard, and a kill fences the shard here.
//
// The registry only moves entries between states. Everything slow (keygen,
// disk I/O) is the caller's, done between two registry calls
// with the lock released: the registry holds no store, calls no callback and
// knows nothing of its payload P but its identity, so a test can drive every
// interleaving of the lifecycle without a key in sight. DESIGN.md ("Session
// lifecycle") has the prose; the table below is what is enforced.
package session

import (
	"errors"
	"fmt"
	"sync"

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

// ErrShardDown refuses a create or restore when every shard is fenced, or
// one whose shard was fenced while it ran. fastd answers it 503 with
// Retry-After: while a survivor is live, the retry lands there.
var ErrShardDown = errors.New("shard down")

// ErrFull refuses a create past the session limit.
var ErrFull = errors.New("session limit reached")

type entry[P comparable] struct {
	id      string
	state   State
	shard   int           // holds a Resident entry; where Publish will put a Reserved or Restoring one
	payload P             // Resident only
	durable bool          // Resident only: the disk describes the session (an evict need not re-save it, a fence does not lose it)
	wait    chan struct{} // Restoring only: closed when the restore resolves
}

type shardState[P comparable] struct {
	fenced      bool
	maxResident int
	order       *lru.Map[*entry[P]] // this shard's residents, least recently used first
}

// Registry is safe for concurrent use.
type Registry[P comparable] struct {
	mu      sync.Mutex
	max     int
	entries map[string]*entry[P] // every ID not Absent
	count   [numStates]int
	shards  []shardState[P]
}

// New returns an empty registry admitting maxSessions sessions (every state
// but Corrupt holds a slot) over shards shards that split maxResident
// residents evenly: shard i evicts past ⌈(maxResident−i)/shards⌉.
func New[P comparable](maxSessions, maxResident, shards int) *Registry[P] {
	r := &Registry[P]{max: maxSessions, entries: map[string]*entry[P]{}}
	for i := range shards {
		r.shards = append(r.shards, shardState[P]{maxResident: (maxResident + shards - 1 - i) / shards, order: lru.New[*entry[P]]()})
	}
	return r
}

// home picks the shard a create or restore of id lands on by rendezvous
// hashing: each live shard scores the ID, the highest score wins. A score
// depends on the ID and the shard alone, so a fence moves only the fenced
// shard's IDs (each to its runner-up) and every other ID keeps its home.
// Scores are the splitmix64 stream seeded with the ID's FNV-1a hash.
func (r *Registry[P]) home(id string) (int, error) {
	h := uint64(14695981039346656037)
	for i := 0; i < len(id); i++ {
		h = (h ^ uint64(id[i])) * 1099511628211
	}
	best, top := -1, uint64(0)
	for i := range r.shards {
		if w := mix64(h + uint64(i+1)*0x9e3779b97f4a7c15); !r.shards[i].fenced && (best < 0 || w > top) {
			best, top = i, w
		}
	}
	if best < 0 {
		return 0, ErrShardDown
	}
	return best, nil
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
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

// Reserve takes a slot for a create, BEFORE its keygen — or N concurrent
// creates all pass the check and overshoot the bound — and returns the shard
// the create is bound for. ErrShardDown: every shard is fenced. ErrFull: the
// limit is reached. Finish with Publish or Abandon.
func (r *Registry[P]) Reserve(id string) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	shard, err := r.home(id)
	if err != nil {
		return 0, err
	}
	if len(r.entries)-r.count[Corrupt] >= r.max {
		return 0, ErrFull
	}
	r.move(&entry[P]{id: id, shard: shard}, Reserved)
	return shard, nil
}

// BeginRestore claims the restore of a Persisted session and returns the
// shard it is bound for. Not ok, and no error: id is not Persisted (any
// more): look again with Acquire. ErrShardDown: every shard is fenced.
func (r *Registry[P]) BeginRestore(id string) (shard int, ok bool, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.entries[id]
	if e == nil || e.state != Persisted {
		return 0, false, nil
	}
	if shard, err = r.home(id); err != nil {
		return 0, false, err
	}
	e.shard = shard
	r.move(e, Restoring)
	return shard, true, nil
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
		e.payload, e.durable = payload, durable
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

// Fence marks shard dead for good and empties it: durable residents become
// Persisted (their next request restores them on a live shard), the others
// are lost with it, as a SIGKILL would lose them. From then on no create or
// restore is routed to it and Publish refuses it; only a new registry — a
// process restart — has it live again. It reports whether this call fenced
// the shard: false for an index out of range or a shard already fenced, so
// of two concurrent kills one sees true and the residents.
func (r *Registry[P]) Fence(shard int) (fenced bool, migrated, lost []P) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if shard < 0 || shard >= len(r.shards) || r.shards[shard].fenced {
		return false, nil, nil
	}
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
	return true, migrated, lost
}

// Stats is the registry by the numbers /readyz and the gauges report.
type Stats struct {
	Occupancy     int    // slots held against maxSessions: every entry but the Corrupt
	Resident      int    // in memory, all shards
	Persisted     int    // on disk only, those being restored included
	Live          int    // shards not fenced
	ShardResident []int  // Resident, per shard
	ShardFenced   []bool // per shard
}

func (r *Registry[P]) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := Stats{
		Occupancy:     len(r.entries) - r.count[Corrupt],
		Resident:      r.count[Resident],
		Persisted:     r.count[Persisted] + r.count[Restoring],
		ShardResident: make([]int, len(r.shards)),
		ShardFenced:   make([]bool, len(r.shards)),
	}
	for i, sh := range r.shards {
		st.ShardResident[i], st.ShardFenced[i] = sh.order.Len(), sh.fenced
		if !sh.fenced {
			st.Live++
		}
	}
	return st
}
