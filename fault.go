package fast

import (
	"sync"

	"github.com/fastfhe/fast/internal/aether"
	"github.com/fastfhe/fast/internal/ckks"
	"github.com/fastfhe/fast/internal/fault"
	"github.com/fastfhe/fast/internal/hemera"
)

// FaultPlan configures deterministic fault injection on the modeled
// evaluation-key transfer path (see WithFaultPlan). Each probability is drawn
// independently per transfer attempt from a seeded stream: a fixed Seed
// reproduces the exact same fault pattern run after run.
//
// Faults perturb the modeled Hemera transfer/pool machinery only — recovery
// (retries, refetches, timeouts, degradation) is exercised and accounted in
// Context.FaultStats and the observer's fault.*/hemera.* instruments, but
// the homomorphic computation itself is untouched: decrypted results are
// bit-exact with a fault-free run. That invariant is what the chaos suite
// (make chaos) asserts.
type FaultPlan struct {
	// Seed selects the deterministic fault stream (0 is a valid seed).
	Seed uint64
	// TransferFailure is the probability a key transfer attempt fails
	// outright and is retried with exponential backoff.
	TransferFailure float64
	// LatencySpike is the probability a transfer is slowed by SpikeFactor;
	// spikes beyond the timeout threshold abort and retry the transfer.
	LatencySpike float64
	// SpikeFactor is the slowdown multiplier of a latency spike (default 8).
	SpikeFactor float64
	// Corruption is the probability a completed transfer fails its checksum
	// and is refetched immediately (no backoff — the link is healthy).
	Corruption float64
	// PoolPressure is the probability a request suffers an external pool
	// flush; bursts of pressure degrade subsequent key-switch decisions to
	// the smallest-footprint method.
	PoolPressure float64
	// PressureFraction is the fraction of pool capacity surviving a
	// pressure flush (default 0.5).
	PressureFraction float64
}

// Enabled reports whether any fault kind has a nonzero probability.
func (p FaultPlan) Enabled() bool { return p.plan().Enabled() }

func (p FaultPlan) plan() fault.Plan {
	return fault.Plan{
		Seed:             p.Seed,
		TransferFailure:  p.TransferFailure,
		LatencySpike:     p.LatencySpike,
		SpikeFactor:      p.SpikeFactor,
		Corruption:       p.Corruption,
		PoolPressure:     p.PoolPressure,
		PressureFraction: p.PressureFraction,
	}
}

// FaultScenario returns a named preset fault plan: "transfer", "spike",
// "corrupt", "pressure", "all" or "none". These mirror the simulator's
// -fault-plan scenarios so the functional and performance layers can be
// chaos-tested under the same conditions.
func FaultScenario(name string) (FaultPlan, error) {
	ip, err := fault.Scenario(name)
	if err != nil {
		return FaultPlan{}, err
	}
	return FaultPlan{
		Seed:             ip.Seed,
		TransferFailure:  ip.TransferFailure,
		LatencySpike:     ip.LatencySpike,
		SpikeFactor:      ip.SpikeFactor,
		Corruption:       ip.Corruption,
		PoolPressure:     ip.PoolPressure,
		PressureFraction: ip.PressureFraction,
	}, nil
}

// FaultStats summarises the recovery activity of the modeled key-transfer
// path since the context was built. All zeros when no fault plan is attached.
type FaultStats struct {
	// Transfers counts modeled evaluation-key requests (one per key-switch).
	Transfers int
	// PoolHits / PoolMisses split requests by key-pool residency.
	PoolHits, PoolMisses int
	// Retries, Timeouts and Refetches count recovery actions on the
	// transfer path.
	Retries, Timeouts, Refetches int
	// DegradedDecisions counts key-switch decisions the degradation
	// fallback rewrote to the smallest-footprint method.
	DegradedDecisions int
	// WastedBytes is the modeled traffic burned by failed attempts;
	// BackoffBytes the modeled idle-channel wait, both in bytes-equivalent
	// at the HBM line rate.
	WastedBytes, BackoffBytes int64
}

// faultState runs a Hemera key-pool manager alongside the functional
// evaluator, feeding it one modeled transfer per key-switch so fault
// injection exercises the full retry/refetch/degrade machinery without
// perturbing computed values. Calls are serialised by a mutex: the fault
// stream is deterministic for deterministic op orders, and safe (though
// order-dependent) under concurrency.
type faultState struct {
	mu    sync.Mutex
	mgr   *hemera.Manager
	stats FaultStats
}

// evkPoolKeys sizes the modeled key pool: deliberately smaller than a
// typical working set (relin + a few rotation keys per method) so chaos
// workloads keep exercising real transfers — hits and capacity misses both
// occur, as on the accelerator's on-chip pool.
const evkPoolKeys = 4

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

func newFaultState(params *ckks.Parameters, plan FaultPlan) *faultState {
	capacity := evkPoolKeys * evkBytes(params, params.MaxLevel(), Hybrid)
	fs := &faultState{mgr: hemera.NewManager(capacity, nil)}
	fs.mgr.SetInjector(fault.NewInjector(plan.plan()))
	return fs
}

// request models one evaluation-key fetch. It returns the (possibly
// degraded) method so callers could, in a future scheduling layer, react to
// degradation; today the functional compute path always uses the caller's
// method, keeping results bit-exact under faults.
func (f *faultState) request(params *ckks.Parameters, keyID string, level int, m Method) {
	if f == nil {
		return
	}
	d := aether.Decision{Level: level, Method: m, Hoist: 1}
	size := evkBytes(params, level, m)
	// Hybrid and KLSS use different physical keys: make the pool identity
	// method-qualified.
	keyID = m.String() + "/" + keyID

	f.mu.Lock()
	defer f.mu.Unlock()
	if dd, changed := f.mgr.MaybeDegrade(d); changed {
		f.stats.DegradedDecisions++
		d = dd
		size = evkBytes(params, level, Hybrid)
	}
	tr := f.mgr.RequestKey(keyID, size, level, d)
	f.stats.Transfers++
	if tr.Hit {
		f.stats.PoolHits++
	} else {
		f.stats.PoolMisses++
	}
	f.stats.Retries += tr.Retries
	f.stats.Timeouts += tr.Timeouts
	f.stats.Refetches += tr.Refetches
	f.stats.WastedBytes += tr.WastedBytes
	f.stats.BackoffBytes += tr.BackoffBytes
}

func (f *faultState) snapshot() FaultStats {
	if f == nil {
		return FaultStats{}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

// setObserver forwards the observability substrate to the modeled manager
// and injector (hemera.* and fault.* instruments).
func (f *faultState) setObserver(o *Observer) {
	if f == nil || o == nil {
		return
	}
	f.mgr.SetObserver(o.unwrap())
}

// FaultStats returns the recovery activity accumulated by the fault-injected
// key-transfer model. Without WithFaultPlan it is all zeros.
func (c *Context) FaultStats() FaultStats { return c.faults.snapshot() }

// FaultPlanActive reports whether the context carries an active fault plan.
func (c *Context) FaultPlanActive() bool { return c.faults != nil }
