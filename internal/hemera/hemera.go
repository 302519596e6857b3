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
	"github.com/fastfhe/fast/internal/fault"
	"github.com/fastfhe/fast/internal/lru"
	"github.com/fastfhe/fast/internal/obs"
)

// BatchBytes is the transfer granularity: Hemera groups 256 consecutive
// 72-bit lane words per batch (§4.1.2), i.e. 256 * 9 bytes.
const BatchBytes = 256 * 9

// Resilience policy constants. All fault penalties are expressed in
// bytes-equivalent at HBM line rate so the simulator converts them to cycles
// with the same BytesPerCycle factor as useful traffic.
const (
	// maxTransferAttempts bounds the retry loop; the final attempt always
	// completes (modeling escalation to a verified slow path) so the
	// functional result never depends on fault luck.
	maxTransferAttempts = 4
	// timeoutFactor is the per-transfer timeout deadline as a multiple of
	// the nominal transfer time: a latency spike beyond it is abandoned and
	// retried rather than waited out.
	timeoutFactor = 4.0
	// backoffNumerator/Denominator: the first retry backs off for
	// size * 1/8 bytes-equivalent, doubling each further attempt.
	backoffShift = 3
	// degradeMissStreak is how many consecutive unprefetched misses flip the
	// Aether decision to the degraded fallback.
	degradeMissStreak = 4
	// degradePressureBurst is how many pool-pressure events inside
	// pressureWindow requests count as thrash.
	degradePressureBurst = 2
	// pressureWindow is the request distance within which pressure events
	// form a burst.
	pressureWindow = 16
)

// Transfer describes the traffic one key request generates.
type Transfer struct {
	KeyID   string
	Bytes   int64 // useful bytes moved from HBM (0 on a pool hit)
	Batches int   // batch count of the useful movement
	Hit     bool  // key was already resident
	// Prefetched reports that the history recorder predicted this request,
	// so the transfer overlaps the preceding execution instead of stalling
	// the pipeline.
	Prefetched bool

	// Fault/recovery accounting (all zero on the fault-free path):

	// Retries counts transfer attempts that failed mid-flight and were
	// re-issued after exponential backoff.
	Retries int
	// Timeouts counts attempts abandoned at the per-transfer deadline
	// because a latency spike pushed them past timeoutFactor x nominal.
	Timeouts int
	// Refetches counts completed transfers discarded on checksum mismatch
	// and fetched again.
	Refetches int
	// WastedBytes is the extra HBM-channel occupancy (bytes-equivalent at
	// line rate) burned by failed attempts, timed-out attempts, refetches
	// and latency spikes. It busies the channel like useful traffic.
	WastedBytes int64
	// BackoffBytes is the exponential-backoff wait (bytes-equivalent at
	// line rate). The channel is idle during backoff but the pipeline is
	// stalled, so the simulator adds it straight to stall cycles.
	BackoffBytes int64
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
// resident, returning the number evicted.
func (p *Pool) evictTo(limit int64) (evicted int) {
	p.keys.Oldest(func(id string, size int64) bool {
		if p.used <= limit {
			return false
		}
		p.keys.Delete(id)
		p.used -= size
		evicted++
		return true
	})
	return evicted
}

// Flush models a transient pool-pressure event: keys are evicted from the
// LRU end until at most surviving*capacity bytes remain resident. It returns
// the number of keys evicted. surviving outside (0,1) flushes everything.
func (p *Pool) Flush(surviving float64) (evicted int) {
	limit := int64(0)
	if surviving > 0 && surviving < 1 {
		limit = int64(surviving * float64(p.capacity))
	}
	return p.evictTo(limit)
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

	// inj is the optional fault injector (nil = fault-free, single pointer
	// check on the hot path, mirroring the obs nil-safe pattern). When an
	// injector is attached the recovery policies below — retry with
	// exponential backoff, per-transfer timeout, refetch-on-corruption,
	// pressure flushes and Aether degradation — come alive.
	inj *fault.Injector

	// Degradation state: sustained unprefetched misses or pool thrash make
	// MaybeDegrade fall back to the lower-evk-footprint configuration.
	reqIndex        int // RequestKey call counter
	missStreak      int // consecutive unprefetched misses
	pressureBurst   int // pressure events within pressureWindow of each other
	lastPressureReq int // reqIndex of the most recent pressure event

	// Optional instruments (nil when unobserved): pool hit/miss traffic,
	// prefetch-classified misses, batch and byte movement, resident bytes,
	// plus the resilience counters (retries, timeouts, refetches, wasted
	// bytes, pressure evictions, degraded Aether decisions).
	o                                        *obs.Observer
	hits, misses, prefetched, batches, bytes *obs.Counter
	resident                                 *obs.Gauge
	retries, timeouts, refetches             *obs.Counter
	wasted, pressureEvicted, degraded        *obs.Counter
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
	m.o = o
	if o == nil {
		m.hits, m.misses, m.prefetched, m.batches, m.bytes, m.resident = nil, nil, nil, nil, nil, nil
		m.retries, m.timeouts, m.refetches, m.wasted, m.pressureEvicted, m.degraded = nil, nil, nil, nil, nil, nil
		m.inj.SetObserver(nil)
		return
	}
	reg := o.Reg()
	m.hits = reg.Counter("hemera.pool.hits")
	m.misses = reg.Counter("hemera.pool.misses")
	m.prefetched = reg.Counter("hemera.pool.prefetched")
	m.batches = reg.Counter("hemera.pool.batches")
	m.bytes = reg.Counter("hemera.pool.transfer_bytes")
	m.resident = reg.Gauge("hemera.pool.resident_bytes")
	m.retries = reg.Counter("hemera.retries")
	m.timeouts = reg.Counter("hemera.timeouts")
	m.refetches = reg.Counter("hemera.refetches")
	m.wasted = reg.Counter("hemera.wasted_bytes")
	m.pressureEvicted = reg.Counter("hemera.pool.pressure_evictions")
	m.degraded = reg.Counter("aether.degraded_decisions")
	m.inj.SetObserver(o)
}

// SetInjector attaches a fault injector to the transfer path (nil detaches —
// RequestKey then pays a single pointer check and the degradation fallback is
// disarmed). The injector also feeds the fault.injected counters once an
// observer is attached.
func (m *Manager) SetInjector(inj *fault.Injector) {
	m.inj = inj
	inj.SetObserver(m.o)
}

// Injector returns the attached fault injector (nil when fault-free).
func (m *Manager) Injector() *fault.Injector { return m.inj }

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
	m.reqIndex++
	m.Address(keyID, size)
	tr := Transfer{KeyID: keyID}
	tr.Prefetched = !m.DisablePrefetch && (m.cfg != nil || m.recorder.Predicts(level, d))
	m.recorder.Record(level, d)
	if m.inj != nil {
		// Pool-pressure fault: a transient capacity squeeze flushes resident
		// keys before the lookup, so this and the following requests thrash.
		if surviving, ok := m.inj.PoolPressure(); ok {
			evicted := m.pool.Flush(surviving)
			if m.pressureEvicted != nil {
				m.pressureEvicted.Add(uint64(evicted))
			}
			if m.reqIndex-m.lastPressureReq <= pressureWindow {
				m.pressureBurst++
			} else {
				m.pressureBurst = 1
			}
			m.lastPressureReq = m.reqIndex
		}
	}
	tr.Hit = m.pool.Request(keyID, size)
	if !tr.Hit {
		tr.Bytes = size
		tr.Batches = int((size + BatchBytes - 1) / BatchBytes)
		if m.inj != nil {
			m.faultTransfer(size, &tr)
		}
	}
	// Degradation bookkeeping: consecutive unpredicted misses indicate the
	// prefetcher has lost the workload's pattern.
	if tr.Hit || tr.Prefetched {
		m.missStreak = 0
	} else {
		m.missStreak++
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
			if tr.Retries > 0 {
				m.retries.Add(uint64(tr.Retries))
			}
			if tr.Timeouts > 0 {
				m.timeouts.Add(uint64(tr.Timeouts))
			}
			if tr.Refetches > 0 {
				m.refetches.Add(uint64(tr.Refetches))
			}
			if tr.WastedBytes > 0 {
				m.wasted.Add(uint64(tr.WastedBytes))
			}
		}
		m.resident.Set(m.pool.Used())
	}
	return tr
}

// faultTransfer runs the resilient transfer loop for one key of the given
// size, accumulating recovery accounting into tr. Every attempt may suffer a
// latency spike (abandoned at the timeout deadline when it exceeds
// timeoutFactor x nominal), a mid-flight failure (retried after exponential
// backoff), or a checksum mismatch on arrival (refetched). The loop is
// bounded by maxTransferAttempts; the final attempt always completes, so
// faults shape timing and traffic but never functional outcomes.
func (m *Manager) faultTransfer(size int64, tr *Transfer) {
	backoff := size >> backoffShift
	// Attempts 1..maxTransferAttempts-1 may fault; falling out of the loop
	// models the final escalated attempt, which always completes.
	for attempt := 1; attempt < maxTransferAttempts; attempt++ {
		retry, backsOff := false, false
		if factor, ok := m.inj.Spike(); ok {
			if factor > timeoutFactor {
				// Abandoned at the deadline: the channel was busy for the
				// full timeout window, then the attempt was cut.
				tr.Timeouts++
				tr.WastedBytes += int64(timeoutFactor * float64(size))
				retry, backsOff = true, true
			} else {
				// Slow but inside the deadline: completes, channel busy for
				// the extra (factor-1) x nominal time.
				tr.WastedBytes += int64((factor - 1) * float64(size))
			}
		}
		if !retry && m.inj.TransferFails() {
			// Failed mid-flight: on average half the batches had moved.
			tr.Retries++
			tr.WastedBytes += size / 2
			retry, backsOff = true, true
		}
		if !retry && m.inj.Corrupts() {
			// Full transfer arrived but the checksum mismatched: discard and
			// refetch immediately (no backoff — the link itself is healthy).
			tr.Refetches++
			tr.WastedBytes += size
			retry = true
		}
		if !retry {
			return
		}
		if backsOff {
			// Exponential backoff before the next attempt (channel idle,
			// pipeline stalled).
			tr.BackoffBytes += backoff
			backoff <<= 1
		}
	}
}

// Degraded reports whether the manager is currently in the degraded state:
// the prefetcher has missed degradeMissStreak consecutive times, or
// pool-pressure events are arriving in bursts (thrash).
func (m *Manager) Degraded() bool {
	if m.inj == nil {
		return false
	}
	if m.missStreak >= degradeMissStreak {
		return true
	}
	return m.pressureBurst >= degradePressureBurst &&
		m.reqIndex-m.lastPressureReq <= pressureWindow
}

// MaybeDegrade applies the graceful-degradation policy to an Aether decision:
// while the manager observes sustained prefetch misses or pool thrash, the
// decision falls back to the lower-evk-footprint configuration (non-hoisted
// hybrid — the smallest resident key set the hardware always supports) for
// this op, shrinking pool pressure at the cost of a slower key switch. The
// returned bool reports whether the decision was changed; changes are counted
// on aether.degraded_decisions.
func (m *Manager) MaybeDegrade(d aether.Decision) (aether.Decision, bool) {
	if !m.Degraded() {
		return d, false
	}
	fb := aether.Fallback(d.OpIndex, d.Level)
	if d.Method == fb.Method && d.Hoist == fb.Hoist {
		return d, false
	}
	if m.degraded != nil {
		m.degraded.Inc()
	}
	return fb, true
}

// PoolUsed exposes resident bytes (for utilisation reporting).
func (m *Manager) PoolUsed() int64 { return m.pool.Used() }

// String describes the manager state.
func (m *Manager) String() string {
	return fmt.Sprintf("hemera: %d keys catalogued, %d bytes resident", len(m.addresses), m.pool.Used())
}
