package main

import (
	"math/rand"
	"reflect"
	"testing"
)

func blocks(seed int64, n int) ([]churnOp, *lruModel) {
	rng := rand.New(rand.NewSource(seed))
	m := newLRUModel(churnSessions, churnResident)
	var ops []churnOp
	for i := 0; i < n; i++ {
		ops = append(ops, nextBlock(rng, m)...)
	}
	return ops, m
}

func TestScheduleDeterministicPerSeed(t *testing.T) {
	a, ma := blocks(7, 5)
	b, mb := blocks(7, 5)
	if !reflect.DeepEqual(a, b) || ma.restores != mb.restores {
		t.Fatal("the same seed must give the same schedule and the same restore count")
	}
	c, _ := blocks(8, 5)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
}

func TestScheduleBlockMixIsExact(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		ops, m := blocks(seed, 3)
		if len(ops) != 3*blockOps {
			t.Fatalf("seed %d: %d ops, want %d", seed, len(ops), 3*blockOps)
		}
		count := map[opKind]int{}
		for i, op := range ops {
			count[op.kind]++
			if op.kind == opRetry {
				prev := ops[i-1]
				if prev.kind != opWarm && prev.kind != opCold {
					t.Fatalf("seed %d: retry at %d follows a %s, want an eval", seed, i, prev.kind)
				}
				if prev.slot != op.slot {
					t.Fatalf("seed %d: retry at %d targets slot %d, previous eval used %d", seed, i, op.slot, prev.slot)
				}
			}
		}
		want := map[opKind]int{opWarm: 3 * blockWarm, opCold: 3 * blockCold, opCreate: 3 * blockCreate, opRetry: 3 * blockRetries}
		if !reflect.DeepEqual(count, want) {
			t.Fatalf("seed %d: mix %v, want %v", seed, count, want)
		}
		if m.restores != 3*blockCold {
			t.Fatalf("seed %d: model predicts %d restores, want one per cold op (%d)", seed, m.restores, 3*blockCold)
		}
	}
}

// Replaying a schedule against an independent, naive LRU must classify every
// op the way the generator did: warm ops hit a resident session, cold ops a
// non-resident one, creates replace the least recently used.
func TestScheduleAgreesWithNaiveLRU(t *testing.T) {
	ops, _ := blocks(3, 10)
	recency := []int{5, 4, 3, 2, 1, 0} // most recent first, as after warm-up
	pos := func(s int) int {
		for i, x := range recency {
			if x == s {
				return i
			}
		}
		return -1
	}
	front := func(s int) {
		p := pos(s)
		recency = append(append([]int{s}, recency[:p]...), recency[p+1:]...)
	}
	for i, op := range ops {
		p := pos(op.slot)
		switch op.kind {
		case opWarm, opRetry:
			if p >= churnResident {
				t.Fatalf("op %d: %s on slot %d at recency position %d (not resident)", i, op.kind, op.slot, p)
			}
		case opCold:
			if p < churnResident {
				t.Fatalf("op %d: cold on slot %d at recency position %d (resident)", i, op.slot, p)
			}
		case opCreate:
			if p != len(recency)-1 {
				t.Fatalf("op %d: create replaces slot %d at position %d, want the coldest", i, op.slot, p)
			}
		}
		front(op.slot)
	}
}

func TestLRUModelTouch(t *testing.T) {
	m := newLRUModel(6, 3)
	if !m.resident(5) || !m.resident(3) || m.resident(2) || m.coldest() != 0 {
		t.Fatalf("initial order wrong: %v", m.order)
	}
	if m.touch(4) { // resident: no restore, moves to front
		t.Fatal("touching a resident session must not be cold")
	}
	if !reflect.DeepEqual(m.order, []int{4, 5, 3, 2, 1, 0}) {
		t.Fatalf("order after touch(4): %v", m.order)
	}
	if !m.touch(1) { // on disk: restore, evicts 3
		t.Fatal("touching an evicted session must be cold")
	}
	if !reflect.DeepEqual(m.order, []int{1, 4, 5, 3, 2, 0}) || m.resident(3) || m.restores != 1 {
		t.Fatalf("after touch(1): order %v restores %d", m.order, m.restores)
	}
	m.recreate(m.coldest()) // slot 0 replaced: resident, no restore
	if !reflect.DeepEqual(m.order, []int{0, 1, 4, 5, 3, 2}) || m.restores != 1 || m.resident(5) {
		t.Fatalf("after recreate: order %v restores %d", m.order, m.restores)
	}
}
