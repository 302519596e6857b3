package fast

import (
	"github.com/fastfhe/fast/internal/ckks"
	"github.com/fastfhe/fast/internal/hemera"
	"github.com/fastfhe/fast/internal/ring"
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

// EvkCacheStats mirrors the hemera.shared.* instrument values (it is
// hemera.SharedStats, converted).
type EvkCacheStats struct {
	Hits, Misses, Evictions, CrossShardHits uint64
	ResidentBytes, Capacity                 int64
	ResidentKeys                            int
}

// NewEvkCache returns a shared evk cache bounded by budgetBytes. The
// observer (nil allowed) registers hemera.shared.{hits,misses,evictions,
// cross_shard_hits,resident_bytes} in its metrics registry.
func NewEvkCache(budgetBytes int64, ob *Observer) *EvkCache {
	return &EvkCache{c: hemera.NewSharedCache(budgetBytes, ob.Registry())}
}

// Stats snapshots the cache counters.
func (e *EvkCache) Stats() EvkCacheStats {
	if e == nil {
		return EvkCacheStats{}
	}
	return EvkCacheStats(e.c.Stats())
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
func (e *evkBinding) request(params *ckks.Parameters, keyID string, m Method) {
	if e == nil {
		return
	}
	// A key is one per (session, method, element) and held at the top level,
	// whatever level the request is at.
	key := e.session + "/" + m.String() + "/" + keyID
	_ = e.cache.GetOrFill(key, e.shard, evkBytes(params, m), nil)
}

// evkBytes is the resident size of one evaluation key: 2β polynomials over
// the extended chain at the top level, each row packed at its prime's width.
func evkBytes(params *ckks.Parameters, m Method) (n int64) {
	special, beta := params.PChain(), params.Beta(params.MaxLevel())
	if m == KLSS && params.SupportsKLSS() {
		special, beta = params.TChain(), params.BetaT(params.MaxLevel())
	}
	for _, chain := range [2][]uint64{params.QChain(), special} {
		for _, q := range chain {
			n += 2 * int64(beta*ring.PackedRowLen(params.N(), ring.PackedBits(q)))
		}
	}
	return n
}
