package main

import (
	"sync"

	fast "github.com/fastfhe/fast"
	"github.com/fastfhe/fast/internal/lru"
	"github.com/fastfhe/fast/internal/obs"
)

// planCache is a bounded per-session LRU of compiled plans keyed by
// fast.Plan fingerprint. A fingerprint covers the program text, the resolved
// input levels and the plan-wide default method — everything Context.Plan
// compiles from except the context itself, which is fixed per session — so a
// hit replays the exact plan a fresh compile would produce. Plans are
// immutable and safe for concurrent executions, so one cached instance can
// serve overlapping requests.
//
// Repeated serving workloads (the same program evaluated per request at the
// same input levels) hit the cache on every request after the first,
// skipping DAG construction, Aether method selection and unit pricing.
type planCache struct {
	mu  sync.Mutex
	cap int
	lru *lru.Map[*fast.Plan]

	hits, misses *obs.Counter // shared daemon-wide counters; nil-safe
}

// planCacheCap bounds each session's cache. Serving deployments run a
// handful of distinct programs per keyspace; 64 distinct (program, levels)
// shapes is far past any expected working set while capping worst-case
// retained plans.
const planCacheCap = 64

func newPlanCache(capacity int, hits, misses *obs.Counter) *planCache {
	return &planCache{cap: capacity, lru: lru.New[*fast.Plan](), hits: hits, misses: misses}
}

// get returns the cached plan for key, promoting it to most-recent, or nil
// on a miss. Hit/miss counters are bumped here so every lookup is tallied.
func (pc *planCache) get(key string) *fast.Plan {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	p, ok := pc.lru.Get(key)
	if !ok {
		pc.misses.Inc()
		return nil
	}
	pc.hits.Inc()
	return p
}

// put inserts a freshly compiled plan, evicting the least-recently-used
// entry past capacity. Re-inserting an existing key (two requests racing the
// same first compile) refreshes the entry rather than duplicating it.
func (pc *planCache) put(key string, p *fast.Plan) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	pc.lru.Put(key, p)
	pc.lru.Oldest(func(oldest string, _ *fast.Plan) bool {
		if pc.lru.Len() <= pc.cap {
			return false
		}
		return pc.lru.Delete(oldest)
	})
}

// drop empties the cache and returns the number of entries discarded — the
// session delete/evict path, where retaining compiled plans for a keyspace
// that no longer resides in memory would defeat the eviction's purpose.
// The count feeds the serve.plan_cache.evicted counter.
func (pc *planCache) drop() int {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	n := pc.lru.Len()
	pc.lru = lru.New[*fast.Plan]()
	return n
}

// size returns the current entry count (test hook).
func (pc *planCache) size() int {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.lru.Len()
}
