package fast

import (
	"testing"
)

func evkTestConfig() ContextConfig {
	return ContextConfig{
		LogN:        9,
		Levels:      3,
		LogScale:    36,
		Rotations:   []int{1, -1},
		Conjugation: true,
		Seed:        7,
	}
}

// TestEvkCacheSharedAcrossContexts: two contexts restored from the same
// session (same session ID, different shard tags) share one set of entries —
// the second shard's traffic is all hits, counted cross-shard, and the
// resident bytes stay under budget.
func TestEvkCacheSharedAcrossContexts(t *testing.T) {
	ob := NewObserver()
	cache := NewEvkCache(1<<30, ob)
	cfg := evkTestConfig()

	c0, err := NewContext(cfg, WithObserver(ob), WithEvkCache(cache, "s1", 0))
	if err != nil {
		t.Fatal(err)
	}
	ct, err := c0.Encrypt([]complex128{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c0.Rotate(ct, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := c0.Conjugate(ct); err != nil {
		t.Fatal(err)
	}
	st := cache.Stats()
	if st.Misses == 0 {
		t.Fatal("no misses recorded: evk traffic is not reaching the shared tier")
	}
	if st.CrossShardHits != 0 {
		t.Fatalf("cross-shard hits = %d before any second shard", st.CrossShardHits)
	}

	// Same keyspace served from shard 1 (the failover path).
	c1, err := NewContext(cfg, WithObserver(ob), WithEvkCache(cache, "s1", 1))
	if err != nil {
		t.Fatal(err)
	}
	before := st
	if _, err := c1.Rotate(ct, 1); err != nil {
		t.Fatal(err)
	}
	st = cache.Stats()
	if st.Misses != before.Misses {
		t.Fatalf("shard 1 re-missed a key shard 0 filled (misses %d -> %d)", before.Misses, st.Misses)
	}
	if st.CrossShardHits == 0 {
		t.Fatal("no cross-shard hit for a key filled by the other shard")
	}
	if st.ResidentBytes > st.Capacity {
		t.Fatalf("resident %d exceeds budget %d", st.ResidentBytes, st.Capacity)
	}
}

// TestEvkCacheSessionIsolation: the same rotation on two different session
// IDs must be two distinct entries — evaluation keys are per-keyspace, and a
// shared tier that conflated them would report fictitious hits.
func TestEvkCacheSessionIsolation(t *testing.T) {
	ob := NewObserver()
	cache := NewEvkCache(1<<30, ob)
	cfg := evkTestConfig()
	for i, sid := range []string{"sA", "sB"} {
		c, err := NewContext(cfg, WithEvkCache(cache, sid, i))
		if err != nil {
			t.Fatal(err)
		}
		ct, err := c.Encrypt([]complex128{1, 2})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Rotate(ct, 1); err != nil {
			t.Fatal(err)
		}
	}
	st := cache.Stats()
	if st.Hits != 0 {
		t.Fatalf("hits = %d: distinct sessions shared an entry", st.Hits)
	}
	if st.Misses != 2 {
		t.Fatalf("misses = %d, want 2", st.Misses)
	}
}

// TestEvkCacheBudgetEnforcedFault: a budget smaller than the working set
// keeps resident_bytes under the cap by evicting, never over-filling.
func TestEvkCacheBudgetEnforcedFault(t *testing.T) {
	ob := NewObserver()
	cfg := evkTestConfig()
	// Budget fits roughly one key: every distinct key evicts the previous.
	probe, err := NewContext(cfg, WithEvkCache(NewEvkCache(1<<40, NewObserver()), "probe", 0))
	if err != nil {
		t.Fatal(err)
	}
	ct, err := probe.Encrypt([]complex128{1})
	if err != nil {
		t.Fatal(err)
	}
	cache := NewEvkCache(probeKeyBytes(probe), ob)
	c, err := NewContext(cfg, WithEvkCache(cache, "s1", 0))
	if err != nil {
		t.Fatal(err)
	}
	ct, err = c.Encrypt([]complex128{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []int{1, -1, 1, -1} {
		if _, err := c.Rotate(ct, r); err != nil {
			t.Fatal(err)
		}
	}
	st := cache.Stats()
	if st.ResidentBytes > st.Capacity {
		t.Fatalf("resident %d exceeds budget %d", st.ResidentBytes, st.Capacity)
	}
	if st.Evictions == 0 {
		t.Fatal("undersized budget produced no evictions")
	}
}

// probeKeyBytes returns the modeled size of one hybrid evk at max level for
// the context's parameters — a budget of exactly one key.
func probeKeyBytes(c *Context) int64 {
	return evkBytes(c.params, c.params.MaxLevel(), Hybrid)
}
