package obs

import (
	"encoding/json"
	"io"
)

// Observer bundles the two observability channels handed through the layers:
// the metrics registry (always present on a non-nil observer) and the span
// tracer (present when event tracing was requested). A nil *Observer is the
// disabled state: Reg() and Tr() return nil, which in turn are safe no-op
// instruments, so a single nil check (or none at all) suffices everywhere.
type Observer struct {
	reg *Registry
	tr  *Tracer
}

// New returns an observer with a fresh registry and no tracer.
func New() *Observer {
	return &Observer{reg: NewRegistry()}
}

// NewTracing returns an observer with a fresh registry and a tracer
// retaining the newest traceCapacity events (<= 0 selects the default
// capacity). Events overwritten in the ring surface live as the registry's
// obs.trace.dropped counter, not only in the trace export's summary.
func NewTracing(traceCapacity int) *Observer {
	reg := NewRegistry()
	tr := NewTracer(traceCapacity)
	tr.SetDropCounter(reg.Counter("obs.trace.dropped"))
	return &Observer{reg: reg, tr: tr}
}

// Reg returns the metrics registry (nil on a nil observer).
func (o *Observer) Reg() *Registry {
	if o == nil {
		return nil
	}
	return o.reg
}

// Tr returns the tracer (nil on a nil observer or when tracing is off).
func (o *Observer) Tr() *Tracer {
	if o == nil {
		return nil
	}
	return o.tr
}

// Snapshot returns a point-in-time copy of the registry.
func (o *Observer) Snapshot() *Snapshot { return o.Reg().Snapshot() }

// WriteSnapshot writes the registry snapshot as indented JSON — the dump
// format cmd/benchtables emits next to its tables.
func (o *Observer) WriteSnapshot(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(o.Snapshot())
}

// WriteChromeTrace writes the buffered trace events as Chrome trace-event
// JSON (empty trace when tracing is off).
func (o *Observer) WriteChromeTrace(w io.Writer) error { return o.Tr().WriteChromeTrace(w) }

// WritePrometheus writes the registry in Prometheus text exposition format.
func (o *Observer) WritePrometheus(w io.Writer) error { return o.Reg().WritePrometheus(w) }
