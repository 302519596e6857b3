package main

import (
	"log/slog"
	"net/http"
	"time"

	"github.com/fastfhe/fast/internal/obs"
)

// Request-scoped observability middleware: every request through the daemon's
// API surface gets an ID (client-provided X-Request-Id, W3C traceparent
// trace-id, or freshly assigned), an entry in the in-flight request table, an
// HTTP span on the shared Chrome-trace timeline and one JSON access-log line
// on completion. The ID travels down through admission, batching and the
// CKKS kernels via the request context, so all of those surfaces join on it.

// tracePIDServe is the Chrome-trace process id of the serving layer's HTTP
// spans (the ckks evaluator uses pid 1, the cycle simulator pid 2).
const tracePIDServe = 3

// statusRecorder captures the status code and body size the handler wrote,
// for the access log and the HTTP span.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (sr *statusRecorder) WriteHeader(code int) {
	if sr.status == 0 {
		sr.status = code
	}
	sr.ResponseWriter.WriteHeader(code)
}

func (sr *statusRecorder) Write(p []byte) (int, error) {
	if sr.status == 0 {
		sr.status = http.StatusOK
	}
	n, err := sr.ResponseWriter.Write(p)
	sr.bytes += int64(n)
	return n, err
}

// sanitizeRequestID accepts a client-provided request ID only if it is short
// and printable-safe (hex, alphanumerics, '.', '_', '-'), so hostile header
// values cannot smuggle log-breaking or header-splitting bytes through the
// echo path. Anything else is discarded and a fresh ID assigned.
func sanitizeRequestID(id string) string {
	if len(id) == 0 || len(id) > 128 {
		return ""
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		ok := (c >= '0' && c <= '9') || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			c == '.' || c == '_' || c == '-'
		if !ok {
			return ""
		}
	}
	return id
}

// withObservability wraps the daemon's mux with the request-correlation
// layer. It runs outermost so even routing failures (404s) are identified,
// tabled and logged.
func (d *daemon) withObservability(next http.Handler) http.Handler {
	tracer := d.observer.Tracer()
	tracer.SetProcessName(tracePIDServe, "fastd http")
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()

		rid := sanitizeRequestID(r.Header.Get("X-Request-Id"))
		tp, hasTP := obs.ParseTraceparent(r.Header.Get("traceparent"))
		if rid == "" {
			if hasTP {
				rid = tp.TraceID
			} else {
				rid = obs.NewRequestID()
			}
		}
		traceID := ""
		if hasTP {
			traceID = tp.TraceID
		}

		req := &obs.Request{ID: rid, TraceID: traceID, Op: r.Method + " " + r.URL.Path, Start: start}
		req.SetPhase(obs.PhaseReceived)
		d.requests.Begin(req)
		defer d.requests.End(req)

		// Echo the correlation identity before the handler writes: the client
		// can join its logs against ours even on rejected requests. An inbound
		// traceparent is round-tripped with the same trace-id and a fresh
		// span-id (this hop's), flags preserved.
		w.Header().Set("X-Request-Id", rid)
		if hasTP {
			tp.SpanID = obs.NewSpanID()
			w.Header().Set("traceparent", tp.String())
		}

		sr := &statusRecorder{ResponseWriter: w}
		next.ServeHTTP(sr, r.WithContext(obs.WithRequest(r.Context(), req)))
		if sr.status == 0 {
			sr.status = http.StatusOK
		}
		elapsed := time.Since(start)

		tracer.CompleteSince(req.Op, "http", tracePIDServe, 0, start, obs.Args{}.RequestID(rid).Status(sr.status))
		d.logRequest(r, req, sr, elapsed)
	})
}

// logRequest emits the one access-log record per request, plus a warn-level
// slow-request record above the configured threshold. Every field is a join
// key against another surface: id/trace_id against the client and the Chrome
// trace, fingerprint and batch against /debug/plans, outcome against the
// degradation-ladder counters.
func (d *daemon) logRequest(r *http.Request, req *obs.Request, sr *statusRecorder, elapsed time.Duration) {
	outcome := req.Outcome()
	if outcome == "" {
		if sr.status < 400 {
			outcome = "ok"
		} else {
			outcome = "error"
		}
	}
	attrs := []slog.Attr{
		slog.String("id", req.ID),
		slog.String("method", r.Method),
		slog.String("path", r.URL.Path),
		slog.Int("status", sr.status),
		slog.String("outcome", outcome),
		slog.Float64("dur_ms", float64(elapsed)/float64(time.Millisecond)),
		slog.Int64("bytes", sr.bytes),
	}
	if req.TraceID != "" {
		attrs = append(attrs, slog.String("trace_id", req.TraceID))
	}
	if s := req.Session(); s != "" {
		attrs = append(attrs, slog.String("session", s))
	}
	if u := req.Units(); u > 0 {
		attrs = append(attrs, slog.Float64("units", u))
	}
	if qw := req.QueueWait(); qw > 0 {
		attrs = append(attrs, slog.Float64("queue_wait_ms", float64(qw)/float64(time.Millisecond)))
	}
	if b := req.Batch(); b != 0 {
		attrs = append(attrs, slog.Uint64("batch", b))
	}
	if fp := req.Fingerprint(); fp != "" {
		attrs = append(attrs, slog.String("fingerprint", fp))
	}
	ctx := r.Context()
	d.logger.LogAttrs(ctx, slog.LevelInfo, "request", attrs...)
	if d.cfg.SlowRequest > 0 && elapsed >= d.cfg.SlowRequest {
		attrs = append(attrs, slog.Float64("threshold_ms",
			float64(d.cfg.SlowRequest)/float64(time.Millisecond)))
		d.logger.LogAttrs(ctx, slog.LevelWarn, "slow request", attrs...)
	}
}
