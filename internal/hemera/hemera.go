// Package hemera implements the online half of the dual-method management
// framework (paper §4.1.2): it owns the evaluation-key pool (HBM address
// catalog indexed by level), monitors the upcoming operation stream, reads
// the Aether configuration file, tracks key-switching patterns in the
// history recorder, and schedules batch-wise, prefetched evk transfers so
// key movement overlaps the preceding key-switch execution.
package hemera

import (
	"fmt"

	"github.com/fastfhe/fast/internal/aether"
	"github.com/fastfhe/fast/internal/lru"
	"github.com/fastfhe/fast/internal/obs"
)

// BatchBytes is the transfer granularity: Hemera groups 256 consecutive
// 72-bit lane words per batch (§4.1.2), i.e. 256 * 9 bytes.
const BatchBytes = 256 * 9

// Transfer describes the traffic one key request generates.
type Transfer struct {
	KeyID   string
	Bytes   int64 // bytes moved from HBM (0 on a pool hit)
	Batches int   // batch count of the movement
	Hit     bool  // key was already resident
	// Prefetched reports that the history recorder predicted this request,
	// so the transfer overlaps the preceding execution instead of stalling
	// the pipeline.
	Prefetched bool
}

// Pool is the on-chip evaluation-key store with LRU replacement: resident
// key IDs by recency, each with its size in bytes.
type Pool struct {
	capacity int64
	used     int64
	keys     *lru.Map[int64]
}

// NewPool returns a pool bounded by capacity bytes.
func NewPool(capacity int64) *Pool {
	return &Pool{capacity: capacity, keys: lru.New[int64]()}
}

// Used returns the resident bytes.
func (p *Pool) Used() int64 { return p.used }

// Len returns the number of resident keys.
func (p *Pool) Len() int { return p.keys.Len() }

// Capacity returns the pool bound in bytes.
func (p *Pool) Capacity() int64 { return p.capacity }

// evictTo evicts least-recently-used keys until at most limit bytes remain
// resident.
func (p *Pool) evictTo(limit int64) {
	p.keys.Oldest(func(id string, size int64) bool {
		if p.used <= limit {
			return false
		}
		p.keys.Delete(id)
		p.used -= size
		return true
	})
}

// Contains reports residency without touching recency.
func (p *Pool) Contains(id string) bool { return p.keys.Has(id) }

// Request makes the key resident, evicting least-recently-used keys as
// needed, and reports whether it was already present. Keys bigger than the
// pool are streamed (never resident) and always miss.
func (p *Pool) Request(id string, size int64) (hit bool) {
	if _, ok := p.keys.Get(id); ok {
		return true
	}
	if size > p.capacity {
		return false // streamed through, nothing retained
	}
	p.evictTo(p.capacity - size)
	p.keys.Put(id, size)
	p.used += size
	return false
}

// historyKey is the pattern the recorder tracks: at a given level, which
// method/hoist configuration ran last time.
type historyKey struct{ level int }

// Recorder is the history recorder: it remembers the key-switching
// configuration used at each level so recurring FHE workflows (bootstrap
// phases repeat the same per-level pattern) can be predicted and their keys
// prefetched.
type Recorder struct {
	seen map[historyKey]aether.Decision
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{seen: map[historyKey]aether.Decision{}} }

// Predicts reports whether the decision at this level matches the recorded
// pattern (a prefetch hit).
func (r *Recorder) Predicts(level int, d aether.Decision) bool {
	prev, ok := r.seen[historyKey{level}]
	return ok && prev.Method == d.Method && prev.Hoist == d.Hoist
}

// Record stores the configuration that actually ran.
func (r *Recorder) Record(level int, d aether.Decision) {
	r.seen[historyKey{level}] = d
}

// Manager ties the pool, the recorder and the Aether configuration together.
type Manager struct {
	pool     *Pool
	recorder *Recorder
	cfg      *aether.ConfigFile

	// DisablePrefetch suppresses both the config-file-driven and the
	// history-driven prefetch classification (used by ablation studies).
	DisablePrefetch bool

	// address catalog: the Evk Pool of the paper stores HBM addresses per
	// level and key kind; we model it to expose the lookups.
	addresses map[string]uint64
	nextAddr  uint64

	// Optional instruments (nil when unobserved): pool hit/miss traffic,
	// prefetch-classified misses, batch and byte movement, resident bytes.
	hits, misses, prefetched, batches, bytes *obs.Counter
	resident                                 *obs.Gauge
}

// NewManager builds a manager with the given on-chip key capacity and the
// Aether configuration file (may be nil: every lookup then falls back to
// non-hoisted hybrid).
func NewManager(capacityBytes int64, cfg *aether.ConfigFile) *Manager {
	return &Manager{
		pool:      NewPool(capacityBytes),
		recorder:  NewRecorder(),
		cfg:       cfg,
		addresses: map[string]uint64{},
	}
}

// SetObserver attaches observability instruments under the hemera.pool.*
// namespace: key-request hits and misses, misses the prefetcher hid,
// batch/byte transfer volume, and resident pool bytes. A nil observer
// detaches; RequestKey then pays a single nil check.
func (m *Manager) SetObserver(o *obs.Observer) {
	if o == nil {
		m.hits, m.misses, m.prefetched, m.batches, m.bytes, m.resident = nil, nil, nil, nil, nil, nil
		return
	}
	reg := o.Reg()
	m.hits = reg.Counter("hemera.pool.hits")
	m.misses = reg.Counter("hemera.pool.misses")
	m.prefetched = reg.Counter("hemera.pool.prefetched")
	m.batches = reg.Counter("hemera.pool.batches")
	m.bytes = reg.Counter("hemera.pool.transfer_bytes")
	m.resident = reg.Gauge("hemera.pool.resident_bytes")
}

// Decision exposes the Aether verdict for an op index (monitor lookup).
func (m *Manager) Decision(opIndex int) aether.Decision {
	return m.cfg.DecisionFor(opIndex)
}

// Address returns the stable HBM address of a key, allocating one on first
// use (the pool catalog of §4.1.2).
func (m *Manager) Address(keyID string, size int64) uint64 {
	if a, ok := m.addresses[keyID]; ok {
		return a
	}
	a := m.nextAddr
	m.addresses[keyID] = a
	m.nextAddr += uint64(size)
	return a
}

// RequestKey processes one evaluation-key requirement: pool lookup, LRU
// update, batch-wise transfer sizing, and prefetch classification. A request
// counts as prefetched when the Aether configuration file announced it (the
// monitor reads the file far ahead of execution: ~900 ns per lookup versus
// ~80 us per key transfer, §7.2) or when the history recorder has seen the
// same per-level pattern.
func (m *Manager) RequestKey(keyID string, size int64, level int, d aether.Decision) Transfer {
	if keyID == "" {
		return Transfer{}
	}
	m.Address(keyID, size)
	tr := Transfer{KeyID: keyID}
	tr.Prefetched = !m.DisablePrefetch && (m.cfg != nil || m.recorder.Predicts(level, d))
	m.recorder.Record(level, d)
	tr.Hit = m.pool.Request(keyID, size)
	if !tr.Hit {
		tr.Bytes = size
		tr.Batches = int((size + BatchBytes - 1) / BatchBytes)
	}
	if m.hits != nil {
		if tr.Hit {
			m.hits.Inc()
		} else {
			m.misses.Inc()
			m.bytes.Add(uint64(tr.Bytes))
			m.batches.Add(uint64(tr.Batches))
			if tr.Prefetched {
				m.prefetched.Inc()
			}
		}
		m.resident.Set(m.pool.Used())
	}
	return tr
}

// PoolUsed exposes resident bytes (for utilisation reporting).
func (m *Manager) PoolUsed() int64 { return m.pool.Used() }

// String describes the manager state.
func (m *Manager) String() string {
	return fmt.Sprintf("hemera: %d keys catalogued, %d bytes resident", len(m.addresses), m.pool.Used())
}
