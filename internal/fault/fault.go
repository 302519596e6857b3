// Package fault is the deterministic fault-injection framework of the FAST
// reproduction. It models the failure modes of the accelerator's
// evaluation-key movement path — transfer failures on the HBM channel,
// latency spikes, partial transfers detected by checksum mismatch, and
// on-chip pool pressure — as seedable, reproducible random events.
//
// Design rules (mirroring the internal/obs nil-safe pattern):
//
//   - A nil *Injector is the disabled state. Every query method is safe on a
//     nil receiver and returns the no-fault outcome after a single pointer
//     check, so wiring an injector through a hot path costs nothing when
//     fault injection is off.
//   - All randomness derives from one splitmix64 stream seeded by Plan.Seed.
//     For a fixed seed and a deterministic call sequence the injected fault
//     pattern — and therefore every simulator result built on it — is
//     bit-reproducible run to run.
//   - Faults model the *performance* surface only: a consumer retries,
//     refetches or degrades its schedule, but computed values never change.
//     The chaos suite (chaos_test.go at the repo root) asserts exactly that.
package fault

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"

	"github.com/fastfhe/fast/internal/obs"
)

// Kind enumerates the modeled fault classes.
type Kind uint8

const (
	// TransferFailure aborts an evk transfer attempt mid-flight (the link
	// drops the batch stream); recovery is retry with exponential backoff.
	TransferFailure Kind = iota
	// LatencySpike multiplies one transfer's latency (HBM contention,
	// refresh storms); recovery is a per-transfer timeout that abandons the
	// slow attempt and retries.
	LatencySpike
	// Corruption is a partial/garbled transfer caught by the per-batch
	// checksum at the pool boundary; recovery is a full refetch.
	Corruption
	// PoolPressure is a transient capacity squeeze on the on-chip evk pool
	// (another tenant, scratch spill): resident keys are flushed and the
	// following requests thrash; sustained pressure triggers the Aether
	// degradation fallback.
	PoolPressure
	// DiskWrite fails a durability write (session snapshot, idempotency
	// journal append) with a synthetic I/O error — a full disk, a torn
	// write, a flaky volume. Recovery is retry-once then degrade: the
	// session stays resident-only (served, but not crash-safe) and the
	// failure is counted, never silently swallowed.
	DiskWrite

	numKinds
)

func (k Kind) String() string {
	switch k {
	case TransferFailure:
		return "transfer_failure"
	case LatencySpike:
		return "latency_spike"
	case Corruption:
		return "corruption"
	case PoolPressure:
		return "pool_pressure"
	case DiskWrite:
		return "disk_write"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Plan is a declarative fault scenario: per-kind firing probabilities plus
// the magnitude knobs of each fault class. The zero Plan injects nothing.
type Plan struct {
	// Seed selects the deterministic random stream (0 is a valid seed).
	Seed uint64

	// TransferFailure is the per-attempt probability that an evk transfer
	// fails mid-flight and must be retried.
	TransferFailure float64
	// LatencySpike is the per-transfer probability of a latency spike.
	LatencySpike float64
	// SpikeFactor is the latency multiplier of a spike (default 8x).
	SpikeFactor float64
	// Corruption is the per-transfer probability of a checksum mismatch
	// forcing a refetch.
	Corruption float64
	// PoolPressure is the per-request probability of a pool-pressure event.
	PoolPressure float64
	// PressureFraction is the fraction of pool capacity that survives a
	// pressure event (default 0.5: half the resident keys are flushed).
	PressureFraction float64
	// DiskWrite is the per-attempt probability that a durability write
	// (snapshot, journal append) fails with a synthetic I/O error.
	DiskWrite float64
}

// Enabled reports whether the plan can inject anything.
func (p Plan) Enabled() bool {
	return p.TransferFailure > 0 || p.LatencySpike > 0 || p.Corruption > 0 || p.PoolPressure > 0 ||
		p.DiskWrite > 0
}

// withDefaults resolves the magnitude knobs.
func (p Plan) withDefaults() Plan {
	if p.SpikeFactor <= 1 {
		p.SpikeFactor = 8
	}
	if p.PressureFraction <= 0 || p.PressureFraction >= 1 {
		p.PressureFraction = 0.5
	}
	return p
}

// Scenarios names the canonical chaos-suite plans, in the order the chaos
// harness runs them.
var scenarios = map[string]Plan{
	"none":     {},
	"transfer": {TransferFailure: 0.25},
	"spike":    {LatencySpike: 0.25, SpikeFactor: 8},
	"corrupt":  {Corruption: 0.2},
	"pressure": {PoolPressure: 0.15},
	"all": {
		TransferFailure: 0.12,
		LatencySpike:    0.12,
		SpikeFactor:     8,
		Corruption:      0.08,
		PoolPressure:    0.08,
	},
}

// ScenarioNames returns the canonical scenario names in sorted order.
func ScenarioNames() []string {
	out := make([]string, 0, len(scenarios))
	for n := range scenarios {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Scenario returns a named canonical plan (seed 0; set Plan.Seed yourself).
func Scenario(name string) (Plan, error) {
	p, ok := scenarios[name]
	if !ok {
		return Plan{}, fmt.Errorf("fault: unknown scenario %q (have %s)", name, strings.Join(ScenarioNames(), ", "))
	}
	return p, nil
}

// ParsePlan parses a plan specification: either a canonical scenario name
// ("transfer", "spike", "corrupt", "pressure", "all", "none") or a
// comma-separated list of kind=probability terms with optional magnitudes:
//
//	"transfer=0.2,spike=0.1x12,corrupt=0.05,pressure=0.1/0.25"
//
// where "x12" sets the spike latency factor and "/0.25" the surviving pool
// fraction of a pressure event.
func ParsePlan(spec string) (Plan, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return Plan{}, nil
	}
	if p, ok := scenarios[spec]; ok {
		return p, nil
	}
	var p Plan
	for _, term := range strings.Split(spec, ",") {
		term = strings.TrimSpace(term)
		if term == "" {
			continue
		}
		kv := strings.SplitN(term, "=", 2)
		if len(kv) != 2 {
			return Plan{}, fmt.Errorf("fault: malformed term %q (want kind=prob)", term)
		}
		key, val := strings.TrimSpace(kv[0]), strings.TrimSpace(kv[1])
		var magnitude float64
		hasMag := false
		if i := strings.IndexAny(val, "x/"); i >= 0 {
			m, err := strconv.ParseFloat(val[i+1:], 64)
			if err != nil {
				return Plan{}, fmt.Errorf("fault: malformed magnitude in %q: %v", term, err)
			}
			magnitude, hasMag = m, true
			val = val[:i]
		}
		prob, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return Plan{}, fmt.Errorf("fault: malformed probability in %q: %v", term, err)
		}
		if prob < 0 || prob > 1 || math.IsNaN(prob) {
			return Plan{}, fmt.Errorf("fault: probability %g in %q out of [0,1]", prob, term)
		}
		switch key {
		case "transfer":
			p.TransferFailure = prob
		case "spike":
			p.LatencySpike = prob
			if hasMag {
				p.SpikeFactor = magnitude
			}
		case "corrupt":
			p.Corruption = prob
		case "pressure":
			p.PoolPressure = prob
			if hasMag {
				p.PressureFraction = magnitude
			}
		case "disk":
			p.DiskWrite = prob
		default:
			return Plan{}, fmt.Errorf("fault: unknown fault kind %q in %q", key, term)
		}
	}
	return p, nil
}

// String renders the plan in ParsePlan syntax.
func (p Plan) String() string {
	if !p.Enabled() {
		return "none"
	}
	var terms []string
	if p.TransferFailure > 0 {
		terms = append(terms, fmt.Sprintf("transfer=%g", p.TransferFailure))
	}
	if p.LatencySpike > 0 {
		t := fmt.Sprintf("spike=%g", p.LatencySpike)
		if p.SpikeFactor > 1 {
			t += fmt.Sprintf("x%g", p.SpikeFactor)
		}
		terms = append(terms, t)
	}
	if p.Corruption > 0 {
		terms = append(terms, fmt.Sprintf("corrupt=%g", p.Corruption))
	}
	if p.PoolPressure > 0 {
		t := fmt.Sprintf("pressure=%g", p.PoolPressure)
		if p.PressureFraction > 0 {
			t += fmt.Sprintf("/%g", p.PressureFraction)
		}
		terms = append(terms, t)
	}
	if p.DiskWrite > 0 {
		terms = append(terms, fmt.Sprintf("disk=%g", p.DiskWrite))
	}
	return strings.Join(terms, ",")
}

// Injector draws fault decisions from the plan's deterministic stream. All
// query methods are nil-safe (a nil injector never fires) and goroutine-safe
// (one mutex around the stream; contention only exists when faults are on).
type Injector struct {
	plan Plan

	mu    sync.Mutex
	state uint64

	// Optional instruments (nil when unobserved): total injections and a
	// per-kind split.
	injected *obs.Counter
	byKind   [numKinds]*obs.Counter
}

// NewInjector compiles a plan into an injector. A plan that injects nothing
// returns nil — the disabled (single-pointer-check) state — so callers can
// unconditionally thread the result through.
func NewInjector(plan Plan) *Injector {
	if !plan.Enabled() {
		return nil
	}
	plan = plan.withDefaults()
	return &Injector{plan: plan, state: plan.Seed ^ 0x9e3779b97f4a7c15}
}

// SetObserver attaches observability instruments under the fault.* namespace:
// fault.injected counts every fired fault, fault.injected.<kind> splits by
// class. A nil observer detaches. Safe on a nil injector.
func (i *Injector) SetObserver(o *obs.Observer) {
	if i == nil {
		return
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	if o == nil {
		i.injected = nil
		for k := range i.byKind {
			i.byKind[k] = nil
		}
		return
	}
	reg := o.Reg()
	i.injected = reg.Counter("fault.injected")
	for k := Kind(0); k < numKinds; k++ {
		i.byKind[k] = reg.Counter("fault.injected." + k.String())
	}
}

// Plan returns the compiled plan (zero on a nil injector).
func (i *Injector) Plan() Plan {
	if i == nil {
		return Plan{}
	}
	return i.plan
}

// Enabled reports whether the injector can fire.
func (i *Injector) Enabled() bool { return i != nil }

// next advances the splitmix64 stream. Caller holds i.mu.
func (i *Injector) next() uint64 {
	i.state += 0x9e3779b97f4a7c15
	z := i.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// fire draws one uniform and compares against prob, recording the injection.
// Caller holds i.mu. The stream is always advanced, so the fault pattern of
// one kind does not depend on the probabilities of the others.
func (i *Injector) fire(prob float64, k Kind) bool {
	u := float64(i.next()>>11) / (1 << 53)
	if u >= prob {
		return false
	}
	if i.injected != nil {
		i.injected.Inc()
		i.byKind[k].Inc()
	}
	return true
}

// TransferFails reports whether this transfer attempt fails mid-flight.
func (i *Injector) TransferFails() bool {
	if i == nil {
		return false
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.fire(i.plan.TransferFailure, TransferFailure)
}

// Spike reports whether this transfer suffers a latency spike, and by what
// latency factor (>1 when ok).
func (i *Injector) Spike() (factor float64, ok bool) {
	if i == nil {
		return 1, false
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	if !i.fire(i.plan.LatencySpike, LatencySpike) {
		return 1, false
	}
	return i.plan.SpikeFactor, true
}

// Corrupts reports whether this transfer arrives with a checksum mismatch.
func (i *Injector) Corrupts() bool {
	if i == nil {
		return false
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.fire(i.plan.Corruption, Corruption)
}

// DiskWriteFails reports whether this durability write attempt (snapshot,
// journal append) fails with a synthetic I/O error.
func (i *Injector) DiskWriteFails() bool {
	if i == nil {
		return false
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.fire(i.plan.DiskWrite, DiskWrite)
}

// PoolPressure reports whether a pool-pressure event hits this request, and
// the fraction of pool capacity that survives it (in (0,1) when ok).
func (i *Injector) PoolPressure() (surviving float64, ok bool) {
	if i == nil {
		return 1, false
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	if !i.fire(i.plan.PoolPressure, PoolPressure) {
		return 1, false
	}
	return i.plan.PressureFraction, true
}
