package shard

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// TestRingStableAssignment: a key maps to the same member call after call,
// and the distribution over many keys touches every member.
func TestRingStableAssignment(t *testing.T) {
	r := NewRing(4)
	counts := make([]int, 4)
	for i := 0; i < 4096; i++ {
		key := fmt.Sprintf("s%d", i)
		m1, err := r.Owner(key)
		if err != nil {
			t.Fatal(err)
		}
		m2, _ := r.Owner(key)
		if m1 != m2 {
			t.Fatalf("key %q: unstable assignment %d vs %d", key, m1, m2)
		}
		counts[m1]++
	}
	for m, c := range counts {
		if c == 0 {
			t.Fatalf("member %d owns no keys out of 4096", m)
		}
	}
	// 64 vnodes keep the imbalance moderate: no member should own more than
	// ~2x its fair share at this key count.
	for m, c := range counts {
		if c > 2*4096/4 {
			t.Fatalf("member %d owns %d/4096 keys (>2x fair share)", m, c)
		}
	}
}

// TestRingFenceRemapsOnlyFencedRange: fencing one member moves exactly its
// keys; every key owned by a survivor keeps its owner. Fencing it again is a
// no-op that reports false.
func TestRingFenceRemapsOnlyFencedRange(t *testing.T) {
	r := NewRing(3)
	const keys = 2048
	before := make([]int, keys)
	for i := range before {
		before[i], _ = r.Owner(fmt.Sprintf("s%d", i))
	}
	if !r.Fence(1) || r.Live() != 2 {
		t.Fatalf("fence: live = %d, want 2", r.Live())
	}
	moved := 0
	for i := 0; i < keys; i++ {
		after, err := r.Owner(fmt.Sprintf("s%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if after == 1 {
			t.Fatalf("key s%d still routed to fenced member", i)
		}
		if before[i] != 1 && after != before[i] {
			t.Fatalf("key s%d owned by survivor %d moved to %d", i, before[i], after)
		}
		if before[i] == 1 {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("fenced member owned no keys; test is vacuous")
	}
	if r.Fence(1) || r.Fence(-1) || r.Fence(3) || r.Live() != 2 {
		t.Fatalf("a second fence of member 1, or one out of range, changed the ring: live = %d", r.Live())
	}
}

// TestRingFencedReportsOnlyKilledMembers: Fenced, which /readyz reports per
// shard, is true for a fenced member alone; an out-of-range member reads as
// not fenced, and refused out-of-range fences leave every member live.
func TestRingFencedReportsOnlyKilledMembers(t *testing.T) {
	r := NewRing(3)
	r.Fence(-1)
	r.Fence(3)
	if r.Live() != 3 {
		t.Fatalf("out-of-range fences changed the ring: live = %d", r.Live())
	}
	r.Fence(2)
	for m, want := range map[int]bool{-1: false, 0: false, 1: false, 2: true, 3: false} {
		if got := r.Fenced(m); got != want {
			t.Fatalf("Fenced(%d) = %v, want %v", m, got, want)
		}
	}
}

// TestRingAllFencedShardDown: a ring with no live members refuses with the
// typed ErrShardDown, never panics or misroutes.
func TestRingAllFencedShardDown(t *testing.T) {
	r := NewRing(2)
	r.Fence(0)
	r.Fence(1)
	if _, err := r.Owner("s1"); !errors.Is(err, ErrShardDown) {
		t.Fatalf("owner on dead ring: %v, want ErrShardDown", err)
	}
	if r.Live() != 0 {
		t.Fatalf("live = %d, want 0", r.Live())
	}
}

// TestRingConcurrentFenceChaos: hammer Owner while members are fenced
// concurrently — the race detector is the assertion, plus: a returned owner
// is always in range and never an error while >= 1 member is guaranteed
// live, and of many concurrent kills of one member exactly one fences it.
func TestRingConcurrentFenceChaos(t *testing.T) {
	r := NewRing(4)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Member 3 is never fenced, so Owner must always succeed.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				m, err := r.Owner(fmt.Sprintf("w%d-%d", w, i))
				if err != nil {
					t.Errorf("owner: %v", err)
					return
				}
				if m < 0 || m > 3 {
					t.Errorf("owner out of range: %d", m)
					return
				}
			}
		}(w)
	}
	var fences atomic.Int64
	var kills sync.WaitGroup
	for k := 0; k < 12; k++ {
		kills.Add(1)
		go func(m int) {
			defer kills.Done()
			if r.Fence(m) {
				fences.Add(1)
			}
		}(k % 3)
	}
	kills.Wait()
	close(stop)
	wg.Wait()
	if fences.Load() != 3 || r.Live() != 1 {
		t.Fatalf("12 kills of 3 members fenced %d times, live = %d; want 3 and 1", fences.Load(), r.Live())
	}
}
