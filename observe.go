package fast

import (
	"context"
	"io"
	"net"
	"net/http"
	"sync"

	"github.com/fastfhe/fast/internal/obs"
)

// Observer is the public handle on the observability substrate: a lock-cheap
// metrics registry plus (optionally) a structured span tracer with Chrome
// trace-event export. One Observer can be shared by any number of Contexts
// and simulations — instruments are named, so everything lands in one
// registry and one trace timeline.
//
// A nil *Observer is valid everywhere it is accepted and disables all
// instrumentation at a single-pointer-check cost.
type Observer struct {
	o *obs.Observer

	planMu   sync.Mutex
	planRing []PlanRecord // bounded ring, newest-last once full
	planNext int          // ring write cursor
	planFull bool
}

// planRingCap bounds the plan-record ring: enough history to correlate a
// metrics scrape interval's worth of aether.decision.* movement with the
// programs that caused it, small enough to never matter for memory.
const planRingCap = 256

// PlanRecord correlates one planned program execution — one Execute call —
// with the observer's aether.decision.* counters: which program (by plan
// fingerprint), for which request, with which per-site verdicts. Records land
// in a bounded ring (capacity 256, oldest evicted first).
type PlanRecord struct {
	// Fingerprint identifies the (program, input levels, options) tuple —
	// Plan.Fingerprint of the executed plan.
	Fingerprint string `json:"fingerprint"`
	// Units is the plan's admission weight.
	Units float64 `json:"units"`
	// Decisions are the planner's per-site verdicts (Plan.Decisions).
	Decisions []PlanDecision `json:"decisions"`
	// RequestID is the serving-request identifier the run's context carried
	// (see ContextWithRequestID) — the join key between the plan ring, the
	// access log and the trace. Empty when the run carried none.
	RequestID string `json:"request_id,omitempty"`
	// Err reports that this run failed (cancellation included).
	Err bool `json:"err,omitempty"`
}

// recordPlan appends a record to the ring (nil-safe).
func (ob *Observer) recordPlan(rec PlanRecord) {
	if ob == nil {
		return
	}
	ob.planMu.Lock()
	defer ob.planMu.Unlock()
	if len(ob.planRing) < planRingCap && !ob.planFull {
		ob.planRing = append(ob.planRing, rec)
		if len(ob.planRing) == planRingCap {
			ob.planFull = true
		}
		return
	}
	ob.planRing[ob.planNext] = rec
	ob.planNext = (ob.planNext + 1) % planRingCap
}

// PlanRecords returns the retained plan-execution records, oldest first
// (empty on a nil observer). Use it to attribute aether.decision.{hybrid,
// klss,hoisted} movement to specific program runs.
func (ob *Observer) PlanRecords() []PlanRecord {
	if ob == nil {
		return nil
	}
	ob.planMu.Lock()
	defer ob.planMu.Unlock()
	if !ob.planFull {
		return append([]PlanRecord(nil), ob.planRing...)
	}
	out := make([]PlanRecord, 0, planRingCap)
	out = append(out, ob.planRing[ob.planNext:]...)
	out = append(out, ob.planRing[:ob.planNext]...)
	return out
}

// ContextWithRequestID returns ctx tagged with a serving-request identifier.
// Operations run under the tagged context (via WithContext, Execute or
// ExecuteBatch) carry the ID on their trace spans and plan record, so one
// request's work is attributable end to end across the access log, the plan
// ring and the Chrome trace. Empty IDs are dropped at the consumers.
func ContextWithRequestID(ctx context.Context, id string) context.Context {
	return obs.WithRequestID(ctx, id)
}

// RequestIDFromContext returns the request ID carried by ctx ("" when
// untagged).
func RequestIDFromContext(ctx context.Context) string {
	return obs.RequestIDFrom(ctx)
}

// NewObserver returns an observer with a metrics registry and no tracer
// (per-op spans are skipped; counters and histograms still accumulate).
func NewObserver() *Observer { return &Observer{o: obs.New()} }

// NewTracingObserver returns an observer that additionally records spans into
// a bounded in-memory ring of the newest capacity events (<= 0 selects the
// 64k default; an older event overwritten by a newer one is counted as
// dropped, in the export and live on obs.trace.dropped).
func NewTracingObserver(capacity int) *Observer {
	return &Observer{o: obs.NewTracing(capacity)}
}

// unwrap returns the observer for the internal layers (nil-safe).
func (ob *Observer) unwrap() *obs.Observer {
	if ob == nil {
		return nil
	}
	return ob.o
}

// Registry exposes the observer's metrics registry so sibling subsystems in
// this module (the serving layer's admission instruments, cmd/fastd's request
// counters) register their counters, gauges and histograms alongside the
// evaluator's and everything lands in one /metrics exposition. Nil-safe: a
// nil observer returns a nil registry; callers should then skip
// instrumentation, exactly as the internal layers do.
func (ob *Observer) Registry() *obs.Registry {
	if ob == nil {
		return nil
	}
	return ob.o.Reg()
}

// Tracer exposes the observer's span tracer so sibling subsystems (cmd/fastd's
// HTTP middleware) emit their spans onto the same Chrome-trace timeline as the
// evaluator's. Nil on a nil observer or when the observer does not trace; a
// nil tracer is itself a safe no-op.
func (ob *Observer) Tracer() *obs.Tracer {
	if ob == nil {
		return nil
	}
	return ob.o.Tr()
}

// MetricsSnapshot is a point-in-time copy of every registered instrument.
type MetricsSnapshot = obs.Snapshot

// HistogramSnapshot is the snapshot of one log2-bucket histogram.
type HistogramSnapshot = obs.HistogramSnapshot

// Metrics returns a snapshot of the observer's registry (empty on nil).
func (ob *Observer) Metrics() *MetricsSnapshot { return ob.unwrap().Snapshot() }

// WriteMetricsJSON writes the metrics snapshot as indented JSON.
func (ob *Observer) WriteMetricsJSON(w io.Writer) error {
	return ob.unwrap().WriteSnapshot(w)
}

// WritePrometheus writes the registry in the Prometheus text exposition
// format.
func (ob *Observer) WritePrometheus(w io.Writer) error {
	return ob.unwrap().WritePrometheus(w)
}

// WriteChromeTrace writes the buffered spans as Chrome trace-event JSON,
// loadable in chrome://tracing or https://ui.perfetto.dev. On a non-tracing
// observer the trace is empty.
func (ob *Observer) WriteChromeTrace(w io.Writer) error {
	return ob.unwrap().WriteChromeTrace(w)
}

// Handler returns the observer's HTTP surface: Prometheus text on /metrics,
// expvar on /debug/vars, pprof under /debug/pprof/, the JSON metrics snapshot
// on /snapshot.json and the Chrome trace on /trace.json.
func (ob *Observer) Handler() http.Handler { return ob.unwrap().Handler() }

// Serve starts an HTTP server for Handler on addr (e.g. ":9090" or
// "127.0.0.1:0"). It returns the bound address and a shutdown function.
func (ob *Observer) Serve(addr string) (net.Addr, func() error, error) {
	return ob.unwrap().Serve(addr)
}
