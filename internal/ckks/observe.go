package ckks

import (
	"time"

	"github.com/fastfhe/fast/internal/obs"
)

// TracePIDEvaluator is the Chrome-trace process id of the functional
// evaluator's wall-clock spans (the simulator uses its own pid; see
// internal/sim).
const TracePIDEvaluator = 1

// opInstr is the (count, latency) instrument pair of one operation label.
type opInstr struct {
	count *obs.Counter
	latNS *obs.Histogram
}

func (i opInstr) observe(t0 time.Time) {
	i.count.Inc()
	i.latNS.ObserveSince(t0)
}

// evalObs holds the evaluator's pre-resolved instruments so the hot path
// never performs a registry lookup. Instruments are named after the
// trace.OpKind vocabulary of the performance stack
// (ckks.op.<OpKind>[.<method>].{count,latency_ns}) so functional-layer
// metrics line up with simulator traces. A nil *evalObs disables everything
// behind a single pointer check.
type evalObs struct {
	tracer *obs.Tracer

	// Key-switching ops carry a per-method dimension (indexed by
	// KeySwitchMethod: Hybrid=0, KLSS=1).
	hmult   [2]opInstr
	hrot    [2]opInstr
	hoisted [2]opInstr
	conj    [2]opInstr

	// Method-free ops.
	hadd    opInstr
	padd    opInstr
	pmult   opInstr
	cmult   opInstr
	rescale opInstr
}

// newEvalObs resolves every instrument once. Returns nil on a nil observer.
func newEvalObs(o *obs.Observer) *evalObs {
	if o == nil {
		return nil
	}
	reg := o.Reg()
	mk := func(name string) opInstr {
		return opInstr{
			count: reg.Counter("ckks.op." + name + ".count"),
			latNS: reg.Histogram("ckks.op." + name + ".latency_ns"),
		}
	}
	eo := &evalObs{tracer: o.Tr()}
	for i, m := range []KeySwitchMethod{Hybrid, KLSS} {
		ms := m.String()
		eo.hmult[i] = mk("HMult." + ms)
		eo.hrot[i] = mk("HRot." + ms)
		eo.hoisted[i] = mk("HRotHoisted." + ms)
		eo.conj[i] = mk("Conjugate." + ms)
	}
	eo.hadd = mk("HAdd")
	eo.padd = mk("PAdd")
	eo.pmult = mk("PMult")
	eo.cmult = mk("CMult")
	eo.rescale = mk("Rescale")
	eo.tracer.SetProcessName(TracePIDEvaluator, "ckks evaluator")
	return eo
}

// methodIdx maps a backend to its instrument slot.
func methodIdx(m KeySwitchMethod) int {
	if m == KLSS {
		return 1
	}
	return 0
}

// finish records one completed op: instrument update plus (when tracing) a
// wall-clock span labelled with the op, method, level and — when the
// operation ran under a request-scoped context — the request ID, so every
// span in the Chrome trace is attributable to the serving request that
// caused it. Only called on a non-nil receiver, from paths already guarded
// by `ev.om != nil`. cc may be nil (uncancellable, request-free call).
func (eo *evalObs) finish(i opInstr, name string, m KeySwitchMethod, level int, t0 time.Time, cc *cancelCheck) {
	i.observe(t0)
	if eo.tracer != nil {
		eo.tracer.CompleteSince(name, "eval", TracePIDEvaluator, 0, t0,
			obs.Args{}.Method(m.String()).Level(level).RequestID(cc.rid()))
	}
}

// finishNoMethod is finish for ops without a key-switching backend.
func (eo *evalObs) finishNoMethod(i opInstr, name string, level int, t0 time.Time, cc *cancelCheck) {
	i.observe(t0)
	if eo.tracer != nil {
		eo.tracer.CompleteSince(name, "eval", TracePIDEvaluator, 0, t0,
			obs.Args{}.Level(level).RequestID(cc.rid()))
	}
}
