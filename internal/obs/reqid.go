package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"strings"
)

// Request identity propagation.
//
// The serving stack threads one request ID through every layer it crosses —
// HTTP middleware, admission queue, planner execution, down to the
// key-switch kernels — via context.Context. Two carriers exist:
//
//   - a bare ID string (WithRequestID), the lightweight form any library
//     caller can attach to correlate spans and PlanRecords with its own
//     bookkeeping;
//   - a *Request (WithRequest), the daemon's richer in-flight record with a
//     live phase, admission units and deadline — see requests.go.
//
// RequestIDFrom resolves either carrier, preferring the *Request, so the
// layers underneath never care which form the caller used.

// ridKey is the context key of the bare request-ID carrier.
type ridKey struct{}

// WithRequestID returns ctx annotated with a request ID. Spans recorded by
// instrumented operations running under this context carry the ID in their
// args, and PlanRecords produced by plan execution list it.
func WithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, ridKey{}, id)
}

// RequestIDFrom returns the request ID carried by ctx ("" when absent). Both
// carriers are recognised: an in-flight *Request (see WithRequest) wins over
// a bare WithRequestID annotation.
func RequestIDFrom(ctx context.Context) string {
	if ctx == nil {
		return ""
	}
	if r, ok := ctx.Value(reqKey{}).(*Request); ok && r != nil {
		return r.ID
	}
	if id, ok := ctx.Value(ridKey{}).(string); ok {
		return id
	}
	return ""
}

// NewRequestID returns a fresh 16-byte (32 hex char) random identifier —
// the same shape as a W3C trace-id, so assigned IDs and trace-derived IDs
// are indistinguishable downstream.
func NewRequestID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand never fails on supported platforms; a zero ID is still
		// a valid (if non-unique) identifier and better than a panic in the
		// serving path.
		return "00000000000000000000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// NewSpanID returns a fresh 8-byte (16 hex char) random span identifier for
// traceparent propagation.
func NewSpanID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// Traceparent is a parsed W3C trace-context traceparent header
// (https://www.w3.org/TR/trace-context/): version "00",
// "00-<32 hex trace-id>-<16 hex parent-id>-<2 hex flags>".
type Traceparent struct {
	TraceID string // 32 lowercase hex chars, not all-zero
	SpanID  string // 16 lowercase hex chars, not all-zero
	Flags   string // 2 hex chars (e.g. "01" = sampled)
}

// String formats the traceparent back into its wire form.
func (tp Traceparent) String() string {
	return "00-" + tp.TraceID + "-" + tp.SpanID + "-" + tp.Flags
}

// ParseTraceparent parses a traceparent header. It accepts version 00 (and,
// per the spec's forward-compatibility rule, any other non-ff version with
// at least the 00 fields) and rejects malformed or all-zero identifiers.
func ParseTraceparent(h string) (Traceparent, bool) {
	parts := strings.Split(strings.TrimSpace(h), "-")
	if len(parts) < 4 {
		return Traceparent{}, false
	}
	ver, traceID, spanID, flags := parts[0], parts[1], parts[2], parts[3]
	if len(ver) != 2 || !isHex(ver) || strings.EqualFold(ver, "ff") {
		return Traceparent{}, false
	}
	if ver == "00" && len(parts) != 4 {
		return Traceparent{}, false
	}
	if len(traceID) != 32 || !isHex(traceID) || allZero(traceID) {
		return Traceparent{}, false
	}
	if len(spanID) != 16 || !isHex(spanID) || allZero(spanID) {
		return Traceparent{}, false
	}
	if len(flags) != 2 || !isHex(flags) {
		return Traceparent{}, false
	}
	return Traceparent{
		TraceID: strings.ToLower(traceID),
		SpanID:  strings.ToLower(spanID),
		Flags:   strings.ToLower(flags),
	}, true
}

func isHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
		if !ok {
			return false
		}
	}
	return true
}

func allZero(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] != '0' {
			return false
		}
	}
	return true
}
