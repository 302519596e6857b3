package session

// A deterministic simulation of the session lifecycle. The registry's callers
// do their slow work — keygen, snapshot reads and writes — between two
// registry calls, so the interesting bugs are interleavings: a fence between
// Reserve and Publish, a delete between BeginRestore and Publish, two evicts
// of one victim. The simulation splits every such operation into its registry
// calls, keeps a pool of operations in flight, and lets a seeded scheduler
// pick which one advances next; the invariants are checked after every step.
// A failure reproduces from its seed.

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
)

type payload struct{ id string }

// op is one multi-call operation in flight: next runs its next registry call
// and returns what remains (nil when done).
type op struct {
	id   string
	kind string
	next func() *op
}

type sim struct {
	t           *testing.T
	r           *Registry[*payload]
	rng         *rand.Rand
	clock       time.Time
	maxSessions int
	maxResident []int
	fenced      []bool
	ids         []string        // every ID handed out, adopted ones included
	gone        map[string]bool // IDs that reached Absent: deleted, lost, or never published
	inflight    []*op
	steps       map[string]int
}

func newSim(t *testing.T, seed int64) *sim {
	rng := rand.New(rand.NewSource(seed))
	s := &sim{
		t: t, rng: rng, clock: time.Unix(0, 0),
		maxSessions: 3 + rng.Intn(4),
		gone:        map[string]bool{},
		steps:       map[string]int{},
	}
	for i, n := 0, 1+rng.Intn(3); i < n; i++ {
		s.maxResident = append(s.maxResident, 1+rng.Intn(2))
	}
	s.fenced = make([]bool, len(s.maxResident))
	s.r = New[*payload](s.maxSessions, s.maxResident)
	s.r.now = func() time.Time { return s.clock }
	s.ids = []string{"a1", "a2"}
	s.r.Adopt(s.ids) // what a restart finds on disk
	return s
}

// disk is the fake store: every simulated read or write goes through it, and
// it asserts the contract the real store relies on — the registry lock is
// never held across I/O.
func (s *sim) disk() (ok bool) {
	if !s.r.mu.TryLock() {
		s.t.Fatal("store entered with the registry lock held")
	}
	s.r.mu.Unlock()
	return s.rng.Intn(4) != 0
}

// someID picks an ID, nine times in ten one that still exists.
func (s *sim) someID() string {
	var live []string
	for _, id := range s.ids {
		if !s.gone[id] {
			live = append(live, id)
		}
	}
	if len(live) > 0 && s.rng.Intn(10) != 0 {
		return live[s.rng.Intn(len(live))]
	}
	return s.ids[s.rng.Intn(len(s.ids))]
}

func (s *sim) someShard() int    { return s.rng.Intn(len(s.fenced)) }
func (s *sim) start(o *op)       { s.inflight = append(s.inflight, o) }
func (s *sim) count(what string) { s.steps[what]++ }

// liveShard is the ring's answer: any shard not fenced (-1: none).
func (s *sim) liveShard() int {
	for _, i := range s.rng.Perm(len(s.fenced)) {
		if !s.fenced[i] {
			return i
		}
	}
	return -1
}

func (s *sim) restoresInFlight(id string) (n int) {
	for _, o := range s.inflight {
		if o.kind == "restore" && o.id == id {
			n++
		}
	}
	return n
}

func (s *sim) create() {
	shard := s.liveShard()
	if shard < 0 {
		return
	}
	id := fmt.Sprintf("s%d", len(s.ids))
	s.ids = append(s.ids, id)
	if !s.r.Reserve(id, shard) {
		s.gone[id] = true
		s.count("create-refused")
		return
	}
	s.start(&op{id: id, kind: "create", next: func() *op {
		if s.rng.Intn(8) == 0 { // keygen failed
			s.r.Abandon(id, false)
			s.gone[id] = true
			return nil
		}
		durable := s.disk()
		switch got := s.r.Publish(id, &payload{id}, durable); {
		case got == Resident && !s.fenced[shard]:
			s.enforce(shard)
		case got == Persisted && s.fenced[shard] && durable:
			s.count("create-fenced-persisted")
		case got == Absent && s.fenced[shard] && !durable:
			s.gone[id] = true
			s.count("create-fenced-lost")
		default:
			s.t.Fatalf("create %s published %v (shard %d fenced=%v durable=%v)", id, got, shard, s.fenced[shard], durable)
		}
		return nil
	}})
}

// request is what a handler does: look the session up and, if it is on disk,
// restore it.
func (s *sim) request() {
	id := s.someID()
	v := s.r.Acquire(id)
	if v.State == Restoring && s.restoresInFlight(id) != 1 {
		s.t.Fatalf("%s is restoring with %d restores in flight", id, s.restoresInFlight(id))
	}
	shard := s.liveShard()
	if v.State != Persisted || shard < 0 {
		return
	}
	if !s.r.BeginRestore(id, shard) {
		s.t.Fatalf("%s: BeginRestore refused a persisted session", id)
	}
	if s.restoresInFlight(id) != 0 {
		s.t.Fatalf("%s: a second restore began while one was in flight", id)
	}
	s.start(&op{id: id, kind: "restore", next: func() *op {
		deleted := s.gone[id]
		switch s.rng.Intn(6) {
		case 0: // checksum failure
			s.disk()
			s.r.Abandon(id, true)
			if got := s.r.Acquire(id).State; got != Corrupt && !deleted {
				s.t.Fatalf("%s after a corrupt restore: %v", id, got)
			}
			s.count("restore-corrupt")
		case 1: // read error
			s.disk()
			s.r.Abandon(id, false)
			if got := s.r.Acquire(id).State; got != Persisted && !deleted {
				s.t.Fatalf("%s after a failed restore: %v", id, got)
			}
		default:
			durable := s.disk() // the epoch write
			switch got := s.r.Publish(id, &payload{id}, durable); {
			case deleted && got == Absent:
				s.count("restore-discarded-by-delete")
			case !deleted && got == Resident && !s.fenced[shard]:
				s.enforce(shard)
			case !deleted && got == Persisted && s.fenced[shard]:
				s.count("restore-fenced")
			default:
				s.t.Fatalf("restore %s published %v (deleted=%v shard %d fenced=%v)", id, got, deleted, shard, s.fenced[shard])
			}
		}
		return nil
	}})
}

// evict is the second half of an eviction: the victim was picked, now the
// disk is made to hold it and the registry told.
func (s *sim) evict(v View[*payload], settle bool) *op {
	return &op{id: v.ID, kind: "evict", next: func() *op {
		if !v.Durable && !s.disk() && !settle {
			s.count("evict-failed")
			return nil // unpersistable: stays resident
		}
		// The victim may since have been evicted, deleted, fenced off — or
		// evicted and restored anew, as a payload nobody has made durable.
		cur := s.r.Acquire(v.ID)
		mine := cur.State == Resident && cur.Payload == v.Payload
		if got := s.r.Evict(v.ID, v.Payload); got != mine {
			s.t.Fatalf("evict of %s returned %v with the registry holding %+v", v.ID, got, cur)
		} else if got {
			s.count("evicted")
		} else if cur.State == Resident {
			s.count("evict-of-a-stale-payload")
		}
		return nil
	}}
}

func (s *sim) enforce(shard int) {
	if v, over := s.r.Victim(shard); over {
		s.start(s.evict(v, false))
	}
}

func (s *sim) sweep() {
	for _, v := range s.r.Idle(s.clock.Add(-50 * time.Second)) {
		s.start(s.evict(v, false))
	}
}

func (s *sim) delete() {
	id := s.someID()
	before := s.r.Acquire(id).State
	_, was := s.r.Delete(id)
	switch {
	case before == Reserved && was == Absent: // not a session yet: left alone
		return
	case was != before:
		s.t.Fatalf("delete %s: registry said it was %v, it was %v", id, was, before)
	case was != Absent:
		s.gone[id] = true
		s.count("deleted-" + was.String())
	}
}

func (s *sim) fence() {
	i := s.someShard()
	s.fenced[i] = true
	_, lost := s.r.Fence(i)
	for _, p := range lost {
		s.gone[p.id] = true
	}
}

func (s *sim) unfence() {
	i := s.someShard()
	s.fenced[i] = false
	s.r.Unfence(i)
}

func (s *sim) step() {
	s.clock = s.clock.Add(time.Second)
	if n := len(s.inflight); n > 0 && (n >= 6 || s.rng.Intn(2) == 0) {
		i := s.rng.Intn(n)
		o := s.inflight[i]
		s.inflight = append(s.inflight[:i], s.inflight[i+1:]...)
		if rest := o.next(); rest != nil {
			s.start(rest)
		}
		return
	}
	switch k := s.rng.Intn(20); {
	case k < 5:
		s.create()
	case k < 13:
		s.request()
	case k < 15:
		s.delete()
	case k < 16:
		s.fence()
	case k < 18:
		s.unfence()
	case k < 19:
		s.sweep()
	default:
		s.enforce(s.someShard())
	}
}

// settle finishes everything in flight and evicts, with a disk that works,
// until no shard is over its bound.
func (s *sim) settle() {
	for len(s.inflight) > 0 {
		o := s.inflight[0]
		s.inflight = s.inflight[1:]
		if rest := o.next(); rest != nil {
			s.start(rest)
		}
	}
	for shard := range s.fenced {
		for v, over := s.r.Victim(shard); over; v, over = s.r.Victim(shard) {
			s.evict(v, true).next()
		}
		if got := s.r.Stats().ShardResident[shard]; got > s.maxResident[shard] {
			s.t.Fatalf("shard %d holds %d residents past its bound of %d after enforcement settled", shard, got, s.maxResident[shard])
		}
	}
}

func (s *sim) check() {
	r := s.r
	var byState [numStates]int
	for id, e := range r.entries {
		byState[e.state]++
		switch {
		case e.id != id || e.state == Absent:
			s.t.Fatalf("entry %q under key %q in state %v", e.id, id, e.state)
		case s.gone[id]:
			s.t.Fatalf("%s is %v again after it was deleted", id, e.state)
		case e.state == Resident && (r.shards[e.shard].fenced || e.payload == nil):
			s.t.Fatalf("%s resident on shard %d (fenced=%v) with payload %v", id, e.shard, r.shards[e.shard].fenced, e.payload)
		case e.state != Resident && e.payload != nil:
			s.t.Fatalf("%s is %v and still holds a payload", id, e.state)
		case (e.state == Restoring) != (e.wait != nil):
			s.t.Fatalf("%s is %v with wait channel %v", id, e.state, e.wait)
		case e.state == Restoring && s.restoresInFlight(id) != 1:
			s.t.Fatalf("%s is restoring with %d restores in flight", id, s.restoresInFlight(id))
		}
	}
	st := r.Stats()
	occupancy := byState[Reserved] + byState[Resident] + byState[Persisted] + byState[Restoring]
	if st.Occupancy != occupancy || occupancy > s.maxSessions {
		s.t.Fatalf("occupancy %d, entries by state %v (sum %d), limit %d", st.Occupancy, byState, occupancy, s.maxSessions)
	}
	if st.Resident != byState[Resident] || st.Persisted != byState[Persisted]+byState[Restoring] {
		s.t.Fatalf("stats %+v, entries by state %v", st, byState)
	}
	ordered := 0
	for i := range r.shards {
		if r.shards[i].fenced != s.fenced[i] {
			s.t.Fatalf("shard %d fenced=%v, want %v", i, r.shards[i].fenced, s.fenced[i])
		}
		r.shards[i].order.Oldest(func(id string, e *entry[*payload]) bool {
			if e.state != Resident || e.shard != i || r.entries[id] != e {
				s.t.Fatalf("shard %d's order holds %s: %v on shard %d", i, id, e.state, e.shard)
			}
			ordered++
			return true
		})
	}
	if ordered != byState[Resident] {
		s.t.Fatalf("%d residents, %d in the shards' orders", byState[Resident], ordered)
	}
}

func TestRegistrySimulation(t *testing.T) {
	seen := map[string]int{}
	for seed := int64(1); seed <= 8; seed++ {
		s := newSim(t, seed)
		func() {
			defer func() {
				if p := recover(); p != nil { // move saw an edge outside the table
					t.Fatalf("seed %d: %v", seed, p)
				}
			}()
			for i := 1; i <= 10000; i++ {
				s.step()
				s.check()
				if i%500 == 0 {
					s.settle()
					s.check()
				}
			}
		}()
		if t.Failed() {
			t.Fatalf("seed %d failed", seed)
		}
		for k, n := range s.steps {
			seen[k] += n
		}
	}
	// The interleavings the registry exists for must actually have happened.
	for _, k := range []string{"create-refused", "create-fenced-persisted", "create-fenced-lost", "restore-corrupt",
		"restore-discarded-by-delete", "restore-fenced", "evict-failed", "evicted", "evict-of-a-stale-payload",
		"deleted-resident", "deleted-persisted", "deleted-restoring", "deleted-corrupt"} {
		if seen[k] == 0 {
			t.Errorf("no seed reached %q", k)
		}
	}
}

// TestRegistryConcurrent runs the same calls from several goroutines at once,
// for the race detector and for the one thing the simulation cannot show:
// that waiters on a restore are released.
func TestRegistryConcurrent(t *testing.T) {
	r := New[*payload](8, []int{2, 2})
	pool := []string{"a0", "a1", "a2", "a3", "a4", "a5"}
	r.Adopt(pool)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 2000; i++ {
				id := pool[rng.Intn(len(pool))]
				switch v := r.Acquire(id); v.State {
				case Absent: // deleted: an ID is never reused, so create a new one
					if id = fmt.Sprintf("g%d.%d", g, i); r.Reserve(id, rng.Intn(2)) {
						r.Publish(id, &payload{id}, rng.Intn(2) == 0)
					}
				case Restoring:
					<-v.Wait
				case Persisted:
					if r.BeginRestore(id, rng.Intn(2)) {
						if rng.Intn(5) == 0 {
							r.Abandon(id, rng.Intn(2) == 0)
						} else {
							r.Publish(id, &payload{id}, true)
						}
					}
				case Resident:
					switch rng.Intn(8) {
					case 0:
						r.Delete(id)
					case 1:
						r.Fence(v.Shard)
						r.Unfence(v.Shard)
					default:
						if victim, over := r.Victim(v.Shard); over {
							r.Evict(victim.ID, victim.Payload)
						}
					}
				case Corrupt:
					r.Delete(id)
				}
			}
		}(g)
	}
	wg.Wait()
	if st := r.Stats(); st.Occupancy > 8 || st.Resident != st.ShardResident[0]+st.ShardResident[1] {
		t.Fatalf("after the hammer: %+v", st)
	}
}
