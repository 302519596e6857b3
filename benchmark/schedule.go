package main

import "math/rand"

// serve_churn's operation schedule and the harness's own model of fastd's
// resident-session LRU. The two are one object because the schedule is
// defined in the model's terms: a "warm" eval goes to a session the model
// holds resident, a "cold" one to a session it holds evicted.

const (
	churnSessions = 6 // logical session slots the client rotates through
	churnResident = 3 // -max-resident-sessions

	// One block of the schedule. Every block holds exactly this mix, shuffled
	// by the seed, so the work in a window does not depend on the luck of the
	// draw — only its order does. 70 % warm, 25 % cold, and creates rare
	// enough (2.5 %) that the 95th percentile falls inside the cold-eval
	// population instead of on the cliff between cold evals and creates.
	blockWarm    = 28
	blockCold    = 10
	blockCreate  = 1
	blockRetries = 2 // replays of the previous eval's Idempotency-Key (1 in 20 evals)
	blockOps     = blockWarm + blockCold + blockCreate + blockRetries
)

type opKind int

const (
	opWarm opKind = iota
	opCold
	opCreate
	opRetry
)

func (k opKind) String() string {
	return [...]string{"warm", "cold", "create", "retry"}[k]
}

// churnOp is one scheduled operation on a session slot.
type churnOp struct {
	kind opKind
	slot int
}

// lruModel mirrors fastd's per-shard resident-session LRU for one shard:
// every request touches its session; a session outside the residentCap most
// recently used is on disk and pays a restore on its next use.
type lruModel struct {
	order       []int // slots, most recently used first
	residentCap int
	restores    int // restores the model predicts so far
}

func newLRUModel(slots, residentCap int) *lruModel {
	m := &lruModel{residentCap: residentCap}
	// Sessions are created (and then warmed) in slot order, so the last slot
	// is the most recently used when the clock starts.
	for s := slots - 1; s >= 0; s-- {
		m.order = append(m.order, s)
	}
	return m
}

func (m *lruModel) position(slot int) int {
	for i, s := range m.order {
		if s == slot {
			return i
		}
	}
	return -1
}

// resident reports whether the model holds slot in memory.
func (m *lruModel) resident(slot int) bool {
	p := m.position(slot)
	return p >= 0 && p < m.residentCap
}

// touch records a request on slot and reports whether it was cold (the
// daemon restores the session from disk and evicts its least recent one).
func (m *lruModel) touch(slot int) (cold bool) {
	p := m.position(slot)
	cold = p >= m.residentCap
	if cold {
		m.restores++
	}
	m.toFront(p)
	return cold
}

// toFront makes the slot at recency position p the most recently used.
func (m *lruModel) toFront(p int) {
	slot := m.order[p]
	copy(m.order[1:p+1], m.order[:p])
	m.order[0] = slot
}

// coldest is the least recently used slot — the one a create replaces.
func (m *lruModel) coldest() int { return m.order[len(m.order)-1] }

// recreate records that slot's session was deleted and a new one created in
// its place: the new session is resident and most recent, which pushes the
// previous third-most-recent session out to disk. No restore is involved.
func (m *lruModel) recreate(slot int) { m.toFront(m.position(slot)) }

// nextBlock draws one block of the schedule. The base mix is shuffled, warm
// and cold ops pick uniformly among the sessions the model holds resident or
// evicted at that point, and the retries follow randomly chosen evals.
func nextBlock(rng *rand.Rand, m *lruModel) []churnOp {
	kinds := make([]opKind, 0, blockOps)
	for i := 0; i < blockWarm; i++ {
		kinds = append(kinds, opWarm)
	}
	for i := 0; i < blockCold; i++ {
		kinds = append(kinds, opCold)
	}
	for i := 0; i < blockCreate; i++ {
		kinds = append(kinds, opCreate)
	}
	rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })

	// Retries go right after an eval, so the replayed key's session is the
	// one just touched and the replay never changes the LRU order.
	var evalIdx []int
	for i, k := range kinds {
		if k != opCreate {
			evalIdx = append(evalIdx, i)
		}
	}
	retryAfter := map[int]bool{}
	for _, j := range rng.Perm(len(evalIdx))[:blockRetries] {
		retryAfter[evalIdx[j]] = true
	}

	ops := make([]churnOp, 0, blockOps)
	for i, k := range kinds {
		var slot int
		switch k {
		case opWarm:
			slot = m.order[rng.Intn(m.residentCap)]
			m.touch(slot)
		case opCold:
			slot = m.order[m.residentCap+rng.Intn(len(m.order)-m.residentCap)]
			m.touch(slot)
		case opCreate:
			slot = m.coldest()
			m.recreate(slot)
		}
		ops = append(ops, churnOp{k, slot})
		if retryAfter[i] {
			ops = append(ops, churnOp{opRetry, slot})
		}
	}
	return ops
}
