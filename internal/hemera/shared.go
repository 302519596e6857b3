package hemera

import (
	"sync"

	"github.com/fastfhe/fast/internal/lru"
	"github.com/fastfhe/fast/internal/obs"
)

// SharedCache is the process-wide evaluation-key tier: one byte-budgeted LRU
// shared by every serving shard, keyed by session + key-switch method +
// galois element (the key ID). It models the memory hierarchy one level
// above the per-Context Hemera pool — the paper's on-chip Evk Pool caches
// keys per accelerator, this caches them per serving process, so N shards
// working the same hot sessions stop holding N duplicate copies of the same
// rotation keys.
//
// Fills are singleflighted: concurrent misses for one key perform one fill
// and the stragglers count as hits once it lands. Each entry remembers the
// shard that filled it; a hit from a different shard counts as a cross-shard
// hit (the metric failover effectiveness is judged by — a session remapped
// to a survivor finds its keys already resident) and ownership transfers to
// the hitting shard. Entries larger than the whole budget stream through:
// they count a miss, run the fill, and are never retained, so one oversized
// key set cannot wipe the cache.
//
// All methods are safe for concurrent use. The fill callback runs OUTSIDE
// the cache lock.
type SharedCache struct {
	mu       sync.Mutex
	capacity int64
	used     int64
	resident *lru.Map[*sharedEntry]
	inflight map[string]*sharedFill

	mHits       *obs.Counter
	mMisses     *obs.Counter
	mEvictions  *obs.Counter
	mCrossShard *obs.Counter
	mResident   *obs.Gauge
}

type sharedEntry struct {
	size  int64
	shard int // the shard whose fill (or last hit) owns the entry
}

type sharedFill struct {
	done  chan struct{}
	err   error
	shard int
}

// SharedStats is a point-in-time snapshot of the cache counters.
type SharedStats struct {
	Hits, Misses, Evictions, CrossShardHits uint64
	ResidentBytes, Capacity                 int64
	ResidentKeys                            int
}

// NewSharedCache returns a shared evk cache bounded by capacity bytes.
// capacity <= 0 disables retention entirely (every request misses and
// streams through) while keeping the accounting live. reg registers the
// hemera.shared.* instruments (nil disables them).
func NewSharedCache(capacity int64, reg *obs.Registry) *SharedCache {
	c := &SharedCache{
		capacity: capacity,
		resident: lru.New[*sharedEntry](),
		inflight: map[string]*sharedFill{},
	}
	if reg != nil {
		c.mHits = reg.Counter("hemera.shared.hits")
		c.mMisses = reg.Counter("hemera.shared.misses")
		c.mEvictions = reg.Counter("hemera.shared.evictions")
		c.mCrossShard = reg.Counter("hemera.shared.cross_shard_hits")
		c.mResident = reg.Gauge("hemera.shared.resident_bytes")
	}
	return c
}

// GetOrFill resolves one evaluation-key request from shard `shard`:
//
//   - resident key: counts a hit (cross-shard when a different shard filled
//     it), refreshes recency, returns immediately — fill is not called;
//   - first miss: runs fill (outside the lock), then makes the key resident
//     (evicting LRU entries past the byte budget) and counts a miss;
//   - concurrent miss: waits for the in-flight fill and counts a hit (the
//     transfer was shared), cross-shard when the filler was another shard.
//
// A fill error is returned to the caller that ran it AND to every waiter;
// nothing is retained. fill == nil is treated as an instant successful fill.
func (c *SharedCache) GetOrFill(key string, shard int, size int64, fill func() error) error {
	for {
		c.mu.Lock()
		if e, ok := c.resident.Get(key); ok {
			cross := e.shard != shard
			e.shard = shard
			c.mu.Unlock()
			c.mHits.Inc()
			if cross {
				c.mCrossShard.Inc()
			}
			return nil
		}
		if f, ok := c.inflight[key]; ok {
			c.mu.Unlock()
			<-f.done
			if f.err != nil {
				return f.err
			}
			// The fill landed; loop to take the resident-hit path (which
			// also handles the pathological case of the entry having been
			// evicted already — then this caller becomes the next filler).
			continue
		}
		f := &sharedFill{done: make(chan struct{}), shard: shard}
		c.inflight[key] = f
		c.mu.Unlock()

		c.mMisses.Inc()
		var err error
		if fill != nil {
			err = fill()
		}

		c.mu.Lock()
		delete(c.inflight, key)
		if err == nil && size <= c.capacity && size > 0 {
			c.insertLocked(key, shard, size)
		}
		c.mu.Unlock()
		f.err = err
		close(f.done)
		return err
	}
}

// insertLocked makes key resident, evicting from the LRU end to fit.
func (c *SharedCache) insertLocked(key string, shard int, size int64) {
	c.resident.Oldest(func(old string, ev *sharedEntry) bool {
		if c.used+size <= c.capacity {
			return false
		}
		c.resident.Delete(old)
		c.used -= ev.size
		c.mEvictions.Inc()
		return true
	})
	c.resident.Put(key, &sharedEntry{size: size, shard: shard})
	c.used += size
	c.mResident.Set(c.used)
}

// Contains reports residency without touching recency (tests/telemetry).
func (c *SharedCache) Contains(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.resident.Has(key)
}

// Stats snapshots the counters.
func (c *SharedCache) Stats() SharedStats {
	c.mu.Lock()
	keys := c.resident.Len()
	used := c.used
	c.mu.Unlock()
	return SharedStats{
		Hits:           c.mHits.Value(),
		Misses:         c.mMisses.Value(),
		Evictions:      c.mEvictions.Value(),
		CrossShardHits: c.mCrossShard.Value(),
		ResidentBytes:  used,
		Capacity:       c.capacity,
		ResidentKeys:   keys,
	}
}
