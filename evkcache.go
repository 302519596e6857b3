package fast

import (
	"github.com/fastfhe/fast/internal/ckks"
	"github.com/fastfhe/fast/internal/hemera"
)

// EvkCache is the process-wide shared evaluation-key tier: one byte-budgeted
// LRU every serving shard's Contexts report their key-switch traffic into,
// keyed by session + method + galois element. It models host memory serving
// N shards — keys a session's previous shard already faulted in are hits for
// whichever shard serves it after a failover (counted as cross-shard hits).
//
// The cache is an accounting tier for the modeled memory hierarchy: the
// functional key material lives in each Context's key set regardless, so a
// "miss" costs bookkeeping, never correctness. Attach it per Context with
// WithEvkCache; read it with Stats or the hemera.shared.* instruments.
//
// It stores nothing (every fill is nil) and is a removal candidate; it stays
// because benchmark/ gates on hemera.shared_hit_share and compiles against
// hemera.NewSharedCache, so removing it waits for a benchmark PR.
type EvkCache struct {
	c *hemera.SharedCache
}

// EvkCacheStats mirrors the hemera.shared.* instrument values.
type EvkCacheStats struct {
	Hits, Misses, Evictions, CrossShardHits uint64
	ResidentBytes, Capacity                 int64
	ResidentKeys                            int
}

// NewEvkCache returns a shared evk cache bounded by budgetBytes. The
// observer (nil allowed) registers hemera.shared.{hits,misses,evictions,
// cross_shard_hits,resident_bytes} in its metrics registry.
func NewEvkCache(budgetBytes int64, ob *Observer) *EvkCache {
	var reg = ob.Registry()
	return &EvkCache{c: hemera.NewSharedCache(budgetBytes, reg)}
}

// Stats snapshots the cache counters.
func (e *EvkCache) Stats() EvkCacheStats {
	if e == nil {
		return EvkCacheStats{}
	}
	st := e.c.Stats()
	return EvkCacheStats{
		Hits:           st.Hits,
		Misses:         st.Misses,
		Evictions:      st.Evictions,
		CrossShardHits: st.CrossShardHits,
		ResidentBytes:  st.ResidentBytes,
		Capacity:       st.Capacity,
		ResidentKeys:   st.ResidentKeys,
	}
}

// WithEvkCache subscribes the context's key-switch traffic to a process-wide
// shared evk cache: every key-switching operation (Mul relinearisation,
// Rotate/RotateHoisted galois keys, Conjugate) records one request under
// session/method/key-ID, sized by evkBytes. shard tags which serving shard
// this context currently runs on — the cache counts a hit from a different
// shard than the filler as a cross-shard hit, the failover-effectiveness
// signal.
//
// The option is settings-only (it does not alter the parameter set), so it
// is equally valid on NewContext and SessionSnapshot.Restore — fastd passes
// it on restore with the surviving shard's ID. A nil cache is a no-op.
func WithEvkCache(cache *EvkCache, sessionID string, shard int) Option {
	return func(s *contextSettings) {
		if cache == nil {
			return
		}
		s.evk = &evkBinding{cache: cache.c, session: sessionID, shard: shard}
	}
}

// evkBinding is a Context's subscription to the shared tier.
type evkBinding struct {
	cache   *hemera.SharedCache
	session string
	shard   int
}

// request records one evaluation-key fetch against the shared tier.
func (e *evkBinding) request(params *ckks.Parameters, keyID string, level int, m Method) {
	if e == nil {
		return
	}
	// Key identity must be independent of the requesting level — galois keys
	// are per (session, method, element), and sizing by the max level makes
	// the byte accounting level-stable too.
	key := e.session + "/" + m.String() + "/" + keyID
	size := evkBytes(params, params.MaxLevel(), m)
	_ = e.cache.GetOrFill(key, e.shard, size, nil)
}

// evkBytes estimates the evaluation-key footprint for one key-switch at the
// given level: 2 polynomials per decomposition group over the extended chain.
func evkBytes(params *ckks.Parameters, level int, m Method) int64 {
	n := int64(params.N())
	if m == KLSS && params.SupportsKLSS() {
		limbs := int64(level + 1 + len(params.TChain()))
		return 2 * int64(params.BetaT(level)) * limbs * n * 8
	}
	limbs := int64(level + 1 + len(params.PChain()))
	return 2 * int64(params.Beta(level)) * limbs * n * 8
}
