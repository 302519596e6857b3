package session

// A deterministic simulation of the session lifecycle. The registry's callers
// do their slow work — keygen, snapshot reads and writes — between two
// registry calls, so the interesting bugs are interleavings: a fence between
// Reserve and Publish, a delete between BeginRestore and Publish, two evicts
// of one victim, a kill of a shard already killed. The simulation splits every such operation into its registry
// calls, keeps a pool of operations in flight, and lets a seeded scheduler
// pick which one advances next; the invariants are checked after every step.
// A failure reproduces from its seed.

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
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
	maxSessions int
	limit       int // the occupancy bound: maxSessions, or what the last restart adopted if more
	maxResident int
	fenced      []bool
	ids         []string        // every ID handed out, adopted ones included
	gone        map[string]bool // IDs that reached Absent: deleted, lost, or never published
	homes       map[string]int  // where each ID was last routed since the last restart
	inflight    []*op
	steps       map[string]int
}

func newSim(t *testing.T, seed int64) *sim {
	rng := rand.New(rand.NewSource(seed))
	s := &sim{
		t: t, rng: rng,
		maxSessions: 3 + rng.Intn(4),
		gone:        map[string]bool{},
		steps:       map[string]int{},
	}
	shards := 1 + rng.Intn(3)
	s.fenced = make([]bool, shards)
	s.maxResident = shards + rng.Intn(shards+1) // a slice of 1 or 2 per shard
	s.ids = []string{"a1", "a2"}
	s.boot(s.ids)
	return s
}

// boot starts a process: a new registry, every shard live, adopting what the
// disk holds.
func (s *sim) boot(disk []string) {
	s.fenced = make([]bool, len(s.fenced))
	s.homes = map[string]int{}
	s.r = New[*payload](s.maxSessions, s.maxResident, len(s.fenced))
	s.r.Adopt(disk)
	s.limit = max(s.maxSessions, len(disk))
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

// abandonRestore ends a restore that built nothing for a reason that says
// nothing about the files: the ID goes back to Persisted unless a DELETE
// claimed it meanwhile.
func (s *sim) abandonRestore(id string, deleted bool) {
	s.r.Abandon(id, false)
	if got := s.r.Acquire(id).State; got != Persisted && !deleted {
		s.t.Fatalf("%s after a failed restore: %v", id, got)
	}
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

// routed checks where the registry placed id: a live shard while there is
// one, ErrShardDown when there is none, and the same shard as last time
// unless that one was fenced since. It reports whether id was placed.
func (s *sim) routed(id string, shard int, err error) bool {
	if !slices.Contains(s.fenced, false) {
		if !errors.Is(err, ErrShardDown) {
			s.t.Fatalf("%s routed to shard %d (err %v) with every shard fenced", id, shard, err)
		}
		return false
	}
	prev, seen := s.homes[id]
	switch {
	case err != nil || shard < 0 || shard >= len(s.fenced) || s.fenced[shard]:
		s.t.Fatalf("%s routed to shard %d (err %v), fenced %v", id, shard, err, s.fenced)
	case seen && !s.fenced[prev] && prev != shard:
		s.t.Fatalf("%s moved from live shard %d to %d", id, prev, shard)
	}
	s.homes[id] = shard
	return true
}

// route asks for an ID's shard as a create or restore would, without one.
func (s *sim) route() {
	id := s.someID()
	s.r.mu.Lock()
	shard, err := s.r.home(id)
	s.r.mu.Unlock()
	if !s.routed(id, shard, err) {
		s.count("route-shard-down")
	}
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
	id := fmt.Sprintf("s%d", len(s.ids))
	s.ids = append(s.ids, id)
	shard, err := s.r.Reserve(id)
	if errors.Is(err, ErrFull) {
		s.gone[id] = true
		s.count("create-refused")
		return
	}
	if !s.routed(id, shard, err) {
		s.gone[id] = true
		s.count("create-shard-down")
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
	if v.State != Persisted {
		return
	}
	shard, ok, err := s.r.BeginRestore(id)
	if !s.routed(id, shard, err) {
		s.count("restore-shard-down")
		return
	}
	if !ok {
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
			s.abandonRestore(id, deleted)
		default:
			if !s.disk() { // the epoch write failed: the restore does not serve
				s.abandonRestore(id, deleted)
				s.count("restore-epoch-unwritten")
				return nil
			}
			switch got := s.r.Publish(id, &payload{id}, true); {
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

// fence is a kill of any shard, one out of range included: it must fence a
// live shard and refuse every other.
func (s *sim) fence() {
	i := s.rng.Intn(len(s.fenced)+2) - 1
	want := i >= 0 && i < len(s.fenced) && !s.fenced[i]
	fenced, migrated, lost := s.r.Fence(i)
	if fenced != want || (!fenced && len(migrated)+len(lost) != 0) {
		s.t.Fatalf("fence of shard %d (fenced %v) returned %v, %d migrated, %d lost", i, s.fenced, fenced, len(migrated), len(lost))
	}
	if !fenced {
		s.count("fence-refused")
		return
	}
	s.fenced[i] = true
	for _, p := range lost {
		s.gone[p.id] = true
	}
}

// restart is a SIGKILL and a restart: the operations in flight die with the
// process and so do its fences. A create that had not written its snapshot,
// and a resident the disk does not describe, are lost; every other entry —
// a corrupt one included, whose files stay on disk — is adopted again.
func (s *sim) restart() {
	var disk []string
	for id, e := range s.r.entries {
		if e.state == Reserved || (e.state == Resident && !e.durable) {
			s.gone[id] = true
			continue
		}
		disk = append(disk, id)
	}
	slices.Sort(disk) // map order is random; a seed must replay the same run
	s.inflight = nil
	s.boot(disk)
	s.count("restart")
}

func (s *sim) step() {
	if n := len(s.inflight); n > 0 && (n >= 6 || s.rng.Intn(2) == 0) {
		i := s.rng.Intn(n)
		o := s.inflight[i]
		s.inflight = append(s.inflight[:i], s.inflight[i+1:]...)
		if rest := o.next(); rest != nil {
			s.start(rest)
		}
		return
	}
	switch k := s.rng.Intn(21); {
	case k < 5:
		s.create()
	case k < 13:
		s.request()
	case k < 15:
		s.delete()
	case k < 16:
		s.fence()
	case k < 17:
		s.restart()
	case k < 18:
		s.route()
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
		if got, bound := s.r.Stats().ShardResident[shard], s.r.shards[shard].maxResident; got > bound {
			s.t.Fatalf("shard %d holds %d residents past its bound of %d after enforcement settled", shard, got, bound)
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
	if st.Occupancy != occupancy || occupancy > s.limit {
		s.t.Fatalf("occupancy %d, entries by state %v (sum %d), limit %d", st.Occupancy, byState, occupancy, s.limit)
	}
	if st.Resident != byState[Resident] || st.Persisted != byState[Persisted]+byState[Restoring] {
		s.t.Fatalf("stats %+v, entries by state %v", st, byState)
	}
	live := 0
	for _, f := range s.fenced {
		if !f {
			live++
		}
	}
	if !slices.Equal(st.ShardFenced, s.fenced) || st.Live != live {
		s.t.Fatalf("stats report %d live of fenced %v, want fenced %v", st.Live, st.ShardFenced, s.fenced)
	}
	ordered := 0
	for i := range r.shards {
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
	for _, k := range []string{"create-refused", "create-shard-down", "create-fenced-persisted", "create-fenced-lost",
		"restore-shard-down", "restore-corrupt", "restore-discarded-by-delete", "restore-fenced", "route-shard-down",
		"fence-refused", "evict-failed", "evicted", "evict-of-a-stale-payload",
		"deleted-resident", "deleted-persisted", "deleted-restoring", "deleted-corrupt", "restart"} {
		if seen[k] == 0 {
			t.Errorf("no seed reached %q", k)
		}
	}
}

// homeOf is where a create or restore of id would land now.
func homeOf(r *Registry[*payload], id string) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.home(id)
}

// onShard returns n IDs with the given prefix whose home in r is shard.
func onShard(t *testing.T, r *Registry[*payload], shard, n int, prefix string) []string {
	var ids []string
	for i := 0; len(ids) < n; i++ {
		if i > 1000 {
			t.Fatalf("no %d IDs with home %d among %s0..%s1000", n, shard, prefix, prefix)
		}
		id := fmt.Sprintf("%s%d", prefix, i)
		if h, _ := homeOf(r, id); h == shard {
			ids = append(ids, id)
		}
	}
	return ids
}

// TestRegistryRoutingIsStableAndBalanced: an ID has one home, whichever
// registry over the same shard count is asked, so a create and the restore
// after a restart agree; and 4096 IDs spread over 4 shards within ±25 % of
// the mean.
func TestRegistryRoutingIsStableAndBalanced(t *testing.T) {
	const ids, shards = 4096, 4
	created, restarted := New[*payload](ids, ids, shards), New[*payload](ids, ids, shards)
	counts := make([]int, shards)
	for i := 0; i < ids; i++ {
		id := fmt.Sprintf("s%d", i)
		shard, err := created.Reserve(id)
		if err != nil {
			t.Fatal(err)
		}
		restarted.Adopt([]string{id})
		again, ok, err := restarted.BeginRestore(id)
		if !ok || err != nil || again != shard {
			t.Fatalf("%s: created on shard %d, restored after a restart on %d (ok %v, err %v)", id, shard, again, ok, err)
		}
		counts[shard]++
	}
	for shard, n := range counts {
		if mean := ids / shards; 4*n < 3*mean || 4*n > 5*mean {
			t.Fatalf("shard %d holds %d of %d IDs, outside ±25%% of the mean %d: %v", shard, n, ids, mean, counts)
		}
	}
}

// TestRegistryFenceRemapsOnlyFencedShard: a fence moves exactly the fenced
// shard's IDs, each to a survivor; every other ID keeps its home. A second
// fence of that shard, and a fence out of range, are refused and change
// nothing.
func TestRegistryFenceRemapsOnlyFencedShard(t *testing.T) {
	r := New[*payload](8, 3, 3)
	const ids = 2048
	before := make([]int, ids)
	for i := range before {
		before[i], _ = homeOf(r, fmt.Sprintf("s%d", i))
	}
	if fenced, _, _ := r.Fence(1); !fenced || r.Stats().Live != 2 {
		t.Fatalf("fence of shard 1: fenced %v, live %d; want true, 2", fenced, r.Stats().Live)
	}
	moved := 0
	for i := range before {
		after, err := homeOf(r, fmt.Sprintf("s%d", i))
		switch {
		case err != nil:
			t.Fatal(err)
		case after == 1:
			t.Fatalf("s%d still routed to the fenced shard", i)
		case before[i] != 1 && after != before[i]:
			t.Fatalf("s%d homed on survivor %d moved to %d", i, before[i], after)
		case before[i] == 1:
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("the fenced shard was home to no ID: the test is vacuous")
	}
	for _, shard := range []int{1, -1, 3} {
		if fenced, _, _ := r.Fence(shard); fenced || r.Stats().Live != 2 {
			t.Fatalf("fence of shard %d: fenced %v, live %d; want refused, 2", shard, fenced, r.Stats().Live)
		}
	}
}

// TestRegistryFencedReportsOnlyKilledShards: Stats' per-shard fenced flags,
// which /readyz reports, are true for a fenced shard alone, and refused
// out-of-range fences leave every shard live.
func TestRegistryFencedReportsOnlyKilledShards(t *testing.T) {
	r := New[*payload](8, 3, 3)
	for _, shard := range []int{-1, 3} {
		if fenced, _, _ := r.Fence(shard); fenced {
			t.Fatalf("fence of out-of-range shard %d accepted", shard)
		}
	}
	if st := r.Stats(); st.Live != 3 || slices.Contains(st.ShardFenced, true) {
		t.Fatalf("out-of-range fences changed the registry: %+v", st)
	}
	r.Fence(2)
	if st := r.Stats(); st.Live != 2 || !slices.Equal(st.ShardFenced, []bool{false, false, true}) {
		t.Fatalf("after fencing shard 2: live %d, fenced %v", st.Live, st.ShardFenced)
	}
}

// TestRegistryAllFencedShardDown: with every shard fenced, a create and a
// restore are refused with the typed ErrShardDown, and the persisted session
// stays persisted for a later process.
func TestRegistryAllFencedShardDown(t *testing.T) {
	r := New[*payload](8, 2, 2)
	r.Adopt([]string{"p"})
	r.Fence(0)
	r.Fence(1)
	if _, err := r.Reserve("s1"); !errors.Is(err, ErrShardDown) {
		t.Fatalf("create with every shard fenced: %v, want ErrShardDown", err)
	}
	if _, ok, err := r.BeginRestore("p"); ok || !errors.Is(err, ErrShardDown) {
		t.Fatalf("restore with every shard fenced: ok %v, %v; want ErrShardDown", ok, err)
	}
	if st := r.Stats(); st.Live != 0 || st.Occupancy != 1 || r.Acquire("p").State != Persisted {
		t.Fatalf("after the refusals: %+v, p %v", st, r.Acquire("p").State)
	}
}

// TestRegistryConcurrentFenceChaos: restores are routed while shards are killed
// concurrently, twelve kills of three shards. The race detector is one
// assertion; the others: shard 3 is never fenced, so routing never fails,
// and each shard's kills fence it exactly once.
func TestRegistryConcurrentFenceChaos(t *testing.T) {
	r := New[*payload](64, 4, 4)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		id := fmt.Sprintf("w%d", w)
		r.Adopt([]string{id})
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				shard, ok, err := r.BeginRestore(id)
				if !ok || err != nil || shard < 0 || shard > 3 {
					t.Errorf("restore of %s: shard %d, ok %v, %v", id, shard, ok, err)
					return
				}
				r.Abandon(id, false)
			}
		}()
	}
	var fences atomic.Int64
	var kills sync.WaitGroup
	for k := 0; k < 12; k++ {
		kills.Add(1)
		go func(shard int) {
			defer kills.Done()
			if fenced, _, _ := r.Fence(shard); fenced {
				fences.Add(1)
			}
		}(k % 3)
	}
	kills.Wait()
	close(stop)
	wg.Wait()
	if fences.Load() != 3 || r.Stats().Live != 1 {
		t.Fatalf("12 kills of 3 shards fenced %d times, live = %d; want 3 and 1", fences.Load(), r.Stats().Live)
	}
}

// TestRegistrySplitsResidentBound: New splits the resident bound across the
// shards evenly — slices differ by at most one and add up to the bound, so
// the shards together never hold more.
func TestRegistrySplitsResidentBound(t *testing.T) {
	for shards := 1; shards <= 4; shards++ {
		for bound := shards; bound <= 9; bound++ {
			r := New[*payload](16, bound, shards)
			sum, lo, hi := 0, bound, 0
			for _, sh := range r.shards {
				sum, lo, hi = sum+sh.maxResident, min(lo, sh.maxResident), max(hi, sh.maxResident)
			}
			if sum != bound || hi-lo > 1 || lo < 1 {
				t.Fatalf("%d residents over %d shards split %d..%d, summing to %d", bound, shards, lo, hi, sum)
			}
		}
	}
}

// TestRegistryFenceIsPermanent: a fence empties its shard — a durable
// resident is handed back as migrated and goes Persisted, one the disk does
// not describe is lost — and the shard stays dead: a restore or create bound
// for it before the fence never lands Resident there, and a second fence
// finds nothing to move. The survivor keeps serving.
func TestRegistryFenceIsPermanent(t *testing.T) {
	r := New[*payload](8, 8, 2)
	ids := onShard(t, r, 1, 5, "k")
	kept, dropped := &payload{ids[0]}, &payload{ids[1]}
	for _, p := range []*payload{kept, dropped} {
		if shard, err := r.Reserve(p.id); shard != 1 || err != nil || r.Publish(p.id, p, p == kept) != Resident {
			t.Fatalf("create of %q on shard 1 did not publish (shard %d, %v)", p.id, shard, err)
		}
	}
	restoring, lateDurable, lateLost := ids[2], ids[3], ids[4]
	r.Adopt([]string{restoring})
	if shard, ok, err := r.BeginRestore(restoring); shard != 1 || !ok || err != nil {
		t.Fatalf("restore of %q: shard %d, ok %v, %v; want shard 1", restoring, shard, ok, err)
	}
	for _, id := range []string{lateDurable, lateLost} {
		if shard, err := r.Reserve(id); shard != 1 || err != nil {
			t.Fatalf("create of %q: shard %d, %v; want shard 1", id, shard, err)
		}
	}

	fenced, migrated, lost := r.Fence(1)
	if !fenced || !slices.Equal(migrated, []*payload{kept}) || !slices.Equal(lost, []*payload{dropped}) {
		t.Fatalf("fence: %v, %d migrated, %d lost; want kept migrated and dropped lost", fenced, len(migrated), len(lost))
	}
	if kv, dv := r.Acquire(kept.id), r.Acquire(dropped.id); kv.State != Persisted || dv.State != Absent {
		t.Fatalf("after the fence: kept %v, dropped %v; want persisted, absent", kv.State, dv.State)
	}
	for id, want := range map[string]State{restoring: Persisted, lateDurable: Persisted, lateLost: Absent} {
		if st := r.Publish(id, &payload{id}, id != lateLost); st != want {
			t.Fatalf("%q bound for shard 1 before its fence published as %v, want %v", id, st, want)
		}
	}
	if fenced, m, l := r.Fence(1); fenced || len(m)+len(l) != 0 {
		t.Fatalf("second fence: %v, %d migrated, %d lost", fenced, len(m), len(l))
	}

	if shard, ok, err := r.BeginRestore(kept.id); shard != 0 || !ok || err != nil || r.Publish(kept.id, kept, true) != Resident {
		t.Fatalf("restore onto the survivor did not publish (shard %d, ok %v, %v)", shard, ok, err)
	}
	if st := r.Stats(); st.Occupancy != 3 || st.ShardResident[0] != 1 || st.ShardResident[1] != 0 {
		t.Fatalf("stats %+v, want kept resident on shard 0, two persisted", st)
	}
}

// TestRegistryVictimIsLeastRecentlyAcquired: recency is the shard's LRU
// order, which a publish and every Acquire of a resident refresh — no clock
// is read. Acquiring the oldest resident makes the next-oldest the victim,
// and a shard within its bound offers none, however long its residents sit.
func TestRegistryVictimIsLeastRecentlyAcquired(t *testing.T) {
	r := New[*payload](8, 2, 1)
	create := func(id string) {
		if _, err := r.Reserve(id); err != nil || r.Publish(id, &payload{id}, true) != Resident {
			t.Fatalf("create of %q did not publish (%v)", id, err)
		}
	}
	create("a")
	create("b")
	if _, over := r.Victim(0); over {
		t.Fatal("a shard within its bound offered a victim")
	}
	r.Acquire("a") // b is now the least recently used
	create("c")
	v, over := r.Victim(0)
	if !over || v.ID != "b" {
		t.Fatalf("victim %q (over=%v), want b: a was acquired after it", v.ID, over)
	}
	if !r.Evict(v.ID, v.Payload) {
		t.Fatal("evict of the victim refused")
	}
	if _, over := r.Victim(0); over {
		t.Fatal("a victim offered after the shard came back within its bound")
	}
}

// TestRegistryConcurrent runs the same calls from several goroutines at once,
// for the race detector and for the one thing the simulation cannot show:
// that waiters on a restore are released.
func TestRegistryConcurrent(t *testing.T) {
	r := New[*payload](8, 4, 2)
	pool := []string{"a0", "a1", "a2", "a3", "a4", "a5"}
	r.Adopt(pool)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 2000; i++ {
				if g == 0 && i == 1000 {
					r.Fence(1) // mid-hammer: shard 0 serves on alone
				}
				id := pool[rng.Intn(len(pool))]
				switch v := r.Acquire(id); v.State {
				case Absent: // deleted: an ID is never reused, so create a new one
					id = fmt.Sprintf("g%d.%d", g, i)
					if _, err := r.Reserve(id); err == nil {
						r.Publish(id, &payload{id}, rng.Intn(2) == 0)
					}
				case Restoring:
					<-v.Wait
				case Persisted:
					if _, ok, _ := r.BeginRestore(id); ok {
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
	if st := r.Stats(); st.Occupancy > 8 || st.Resident != st.ShardResident[0] || st.ShardResident[1] != 0 {
		t.Fatalf("after the hammer: %+v", st)
	}
}
