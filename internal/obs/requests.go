package obs

import (
	"context"
	"encoding/json"
	"net/http"
	"sort"
	"sync"
	"time"
)

// The in-flight request table: the live complement of the post-hoc plan ring
// and the latency histograms. Every served request owns one *Request from
// HTTP arrival to response; the layers it crosses advance its phase
// (received → queued → executing/batched) and annotate it with whatever
// attribution they learn (session, admission units, plan fingerprint). The
// table serves the current set at /debug/requests, so an operator can answer
// "what is the server doing right now, and for whom" without waiting for a
// scrape or pulling a trace.

// Request phases, in lifecycle order. A request may skip phases (an encrypt
// never plans; a sequential eval never batches).
const (
	PhaseReceived  = "received"  // middleware accepted it; not yet admitted
	PhasePlanning  = "planning"  // parsing/compiling the program
	PhaseQueued    = "queued"    // admitted, waiting for a worker
	PhaseExecuting = "executing" // running on a worker
	PhaseBatched   = "batched"   // scooped into a batchmate's execution
)

// Request is one in-flight request's live record. Identity fields (ID,
// TraceID, Op) are written once by the middleware before the request enters
// any concurrent layer and are read-only afterwards; mutable attribution
// goes through the Set* methods, which are nil-safe so instrumented layers
// hold plain pointers without feature flags.
type Request struct {
	ID      string // request ID (assigned or client-provided)
	TraceID string // W3C trace-id when the client sent a traceparent
	Op      string // "POST /v1/sessions/{id}/eval" style route label
	Start   time.Time

	mu          sync.Mutex
	session     string
	phase       string
	outcome     string
	units       float64
	fingerprint string
	deadline    time.Time
	queuedAt    time.Time
	execAt      time.Time
}

// SetOutcome records the request's terminal classification on the degradation
// ladder ("ok", "queue_full", "shed", "draining", "canceled", "deadline",
// "bad_request", "panic", "error") for the access log. The first
// non-empty write wins: the error-mapping layer classifies before the
// middleware applies its status-code fallback.
func (r *Request) SetOutcome(o string) {
	if r == nil || o == "" {
		return
	}
	r.mu.Lock()
	if r.outcome == "" {
		r.outcome = o
	}
	r.mu.Unlock()
}

// Outcome returns the recorded outcome ("" = none yet).
func (r *Request) Outcome() string {
	if r == nil {
		return ""
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.outcome
}

// SetSession records the session keyspace the request targets.
func (r *Request) SetSession(id string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.session = id
	r.mu.Unlock()
}

// SetPhase advances the lifecycle phase, stamping the queue/execution
// transition times the access log's queue-wait field is computed from.
func (r *Request) SetPhase(phase string) {
	if r == nil {
		return
	}
	now := time.Now()
	r.mu.Lock()
	r.phase = phase
	switch phase {
	case PhaseQueued:
		r.queuedAt = now
	case PhaseExecuting, PhaseBatched:
		if r.execAt.IsZero() {
			r.execAt = now
		}
	}
	r.mu.Unlock()
}

// SetUnits records the admission cost weight.
func (r *Request) SetUnits(u float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.units = u
	r.mu.Unlock()
}

// SetFingerprint records the executed plan's fingerprint.
func (r *Request) SetFingerprint(fp string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.fingerprint = fp
	r.mu.Unlock()
}

// SetDeadline records the request's deadline for the table's
// deadline-remaining column (zero = none).
func (r *Request) SetDeadline(d time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.deadline = d
	r.mu.Unlock()
}

// QueueWait returns how long the request waited between admission and
// execution (0 when it never queued or has not started executing).
func (r *Request) QueueWait() time.Duration {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.queuedAt.IsZero() || r.execAt.IsZero() {
		return 0
	}
	return r.execAt.Sub(r.queuedAt)
}

// Fingerprint returns the recorded plan fingerprint ("" = none).
func (r *Request) Fingerprint() string {
	if r == nil {
		return ""
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.fingerprint
}

// Units returns the recorded admission units.
func (r *Request) Units() float64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.units
}

// Session returns the recorded session ID ("" = none).
func (r *Request) Session() string {
	if r == nil {
		return ""
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.session
}

// reqKey is the context key carrying an in-flight *Request.
type reqKey struct{}

// WithRequest returns ctx carrying the in-flight request record, so every
// layer downstream (admission, batcher, kernels) can annotate it and read
// its ID without new plumbing through call signatures.
func WithRequest(ctx context.Context, r *Request) context.Context {
	return context.WithValue(ctx, reqKey{}, r)
}

// RequestFrom returns the in-flight request carried by ctx (nil when absent).
func RequestFrom(ctx context.Context) *Request {
	if ctx == nil {
		return nil
	}
	r, _ := ctx.Value(reqKey{}).(*Request)
	return r
}

// RequestSnapshot is one row of the /debug/requests table.
type RequestSnapshot struct {
	ID                  string  `json:"id"`
	TraceID             string  `json:"trace_id,omitempty"`
	Session             string  `json:"session,omitempty"`
	Op                  string  `json:"op"`
	Phase               string  `json:"phase"`
	AgeMs               float64 `json:"age_ms"`
	Units               float64 `json:"units,omitempty"`
	Fingerprint         string  `json:"fingerprint,omitempty"`
	DeadlineRemainingMs float64 `json:"deadline_remaining_ms,omitempty"`
}

// RequestTable tracks the set of in-flight requests. All methods are safe on
// a nil *RequestTable (no-ops / empty results), mirroring the rest of the
// package's disabled-is-free convention.
type RequestTable struct {
	mu       sync.Mutex
	inflight map[*Request]struct{}
	gauge    *Gauge // optional live-size gauge
}

// NewRequestTable returns an empty table. reg, when non-nil, receives an
// "http.requests.inflight" gauge tracking the live table size.
func NewRequestTable(reg *Registry) *RequestTable {
	t := &RequestTable{inflight: make(map[*Request]struct{})}
	if reg != nil {
		t.gauge = reg.Gauge("http.requests.inflight")
	}
	return t
}

// Begin adds a request to the table.
func (t *RequestTable) Begin(r *Request) {
	if t == nil || r == nil {
		return
	}
	t.mu.Lock()
	t.inflight[r] = struct{}{}
	n := len(t.inflight)
	t.mu.Unlock()
	t.gauge.Set(int64(n))
}

// End removes a request from the table.
func (t *RequestTable) End(r *Request) {
	if t == nil || r == nil {
		return
	}
	t.mu.Lock()
	delete(t.inflight, r)
	n := len(t.inflight)
	t.mu.Unlock()
	t.gauge.Set(int64(n))
}

// Len returns the number of in-flight requests.
func (t *RequestTable) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.inflight)
}

// Snapshot returns the current in-flight set, oldest first.
func (t *RequestTable) Snapshot() []RequestSnapshot {
	if t == nil {
		return nil
	}
	now := time.Now()
	t.mu.Lock()
	reqs := make([]*Request, 0, len(t.inflight))
	for r := range t.inflight {
		reqs = append(reqs, r)
	}
	t.mu.Unlock()

	out := make([]RequestSnapshot, 0, len(reqs))
	for _, r := range reqs {
		r.mu.Lock()
		snap := RequestSnapshot{
			ID:          r.ID,
			TraceID:     r.TraceID,
			Session:     r.session,
			Op:          r.Op,
			Phase:       r.phase,
			AgeMs:       float64(now.Sub(r.Start)) / float64(time.Millisecond),
			Units:       r.units,
			Fingerprint: r.fingerprint,
		}
		if !r.deadline.IsZero() {
			snap.DeadlineRemainingMs = float64(r.deadline.Sub(now)) / float64(time.Millisecond)
		}
		r.mu.Unlock()
		out = append(out, snap)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].AgeMs != out[j].AgeMs {
			return out[i].AgeMs > out[j].AgeMs
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// Handler serves the table as indented JSON: {"count": N, "requests": [...]}.
func (t *RequestTable) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		snap := t.Snapshot()
		if snap == nil {
			snap = []RequestSnapshot{}
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(map[string]any{"count": len(snap), "requests": snap})
	})
}
