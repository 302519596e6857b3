package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// Event is one trace event in the Chrome trace-event model
// (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU)
// as the export and Events() present it: "X" complete events carry a start
// timestamp and duration, "i" instants a timestamp only, "M" metadata events
// name processes/threads. Timestamps are microseconds on the tracer's
// timebase. This is the decoded form; what the tracer retains per span is the
// fixed-size event below.
type Event struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// Args is the fixed argument set a span can carry — the eight keys this
// repository attaches to spans, each typed, none behind a map. The zero Args
// carries nothing; the builder methods return a copy with one argument set,
// so a call site reads Args{}.Method(m).Level(l).RequestID(id) and allocates
// nothing.
type Args struct {
	set                       uint8
	method, name, phase, rid  string
	level, status, idx, hoist int32
}

// Presence bits of Args.set / event.set, in export (alphabetical) order.
const (
	argHoist uint8 = 1 << iota
	argIdx
	argLevel
	argMethod
	argName
	argPhase
	argRequestID
	argStatus
)

// Method sets args.method (a key-switching backend's name).
func (a Args) Method(m string) Args { a.method, a.set = m, a.set|argMethod; return a }

// Level sets args.level (the ciphertext level the op ran at).
func (a Args) Level(l int) Args { a.level, a.set = int32(l), a.set|argLevel; return a }

// RequestID sets args.request_id; an empty ID (request-free call) sets nothing.
func (a Args) RequestID(id string) Args {
	if id != "" {
		a.rid, a.set = id, a.set|argRequestID
	}
	return a
}

// Status sets args.status (an HTTP status code).
func (a Args) Status(code int) Args { a.status, a.set = int32(code), a.set|argStatus; return a }

// Idx sets args.idx (an op's position in a simulated trace).
func (a Args) Idx(i int) Args { a.idx, a.set = int32(i), a.set|argIdx; return a }

// Name sets args.name.
func (a Args) Name(n string) Args { a.name, a.set = n, a.set|argName; return a }

// Hoist sets args.hoist (rotations sharing one decomposition).
func (a Args) Hoist(h int) Args { a.hoist, a.set = int32(h), a.set|argHoist; return a }

// Phase sets args.phase (a workload phase label).
func (a Args) Phase(p string) Args { a.phase, a.set = p, a.set|argPhase; return a }

const (
	// ridInline is the request-ID bytes an event holds inline: the longest ID
	// the serving layer accepts (cmd/fastd sanitizeRequestID), four times the
	// 32 hex chars of an assigned or traceparent-derived one. A longer ID (a
	// library caller's) is cut to this length in the trace only.
	ridInline = 128
	// maxInterned bounds the string table. Names, categories and methods are
	// code constants; only HTTP span names ("POST /v1/sessions/s7/eval") grow
	// with traffic, and past the bound they export as internOther.
	maxInterned = 4096
	internOther = "(other)"
)

// event is what the ring holds per span: fixed size, no pointers — the
// collector never scans the ring, and once the ring has reached its size
// emitting a span allocates nothing.
// Strings of low cardinality are indices into the tracer's intern table; the
// request ID, which is not, is held inline.
type event struct {
	ts, dur                              float64
	pid, tid                             int32
	level, status, idx, hoist            int32
	name, cat, method, argName, argPhase uint16
	ph                                   byte
	set                                  uint8
	ridLen                               uint8
	rid                                  [ridInline]byte
}

// Tracer is a bounded, race-safe span recorder: a ring of the newest capacity
// events. Once full, every new event overwrites the oldest; overwrites are
// counted (Dropped, the export's metadata, and live on obs.trace.dropped).
// Process/thread-name metadata is kept beside the ring, one entry per track,
// so a wrapped ring still exports named tracks. A nil *Tracer is a valid
// disabled tracer: every method is a no-op and StartSpan returns an inert
// span, so instrumented code needs no feature flag.
//
// The tracer favours simplicity over peak throughput: emitting takes a mutex.
// One uncontended lock per recorded event is noise against the
// microsecond-to-millisecond spans this repository records (homomorphic ops,
// key-switch phases, simulated kernels); the metrics registry, not the
// tracer, is the instrument for per-limb-scale hot paths.
type Tracer struct {
	t0 time.Time

	mu    sync.Mutex
	ring  [][]event // chunks of ringChunk events, added as the ring first fills; then wraps
	size  uint64    // capacity in events
	n     uint64    // events ever emitted; slot n % size is the next one written
	meta  []Event   // "M" events, deduplicated by (name, pid, tid)
	names []string  // intern table; names[0] = "", names[1] = internOther
	index map[string]uint16
	dropC *Counter // live overwrite counter (nil = export-summary only)
}

// ringChunk is the events one ring chunk holds: 4096 × 184 B = 736 KiB.
const ringChunk = 1 << 12

// NewTracer returns a tracer retaining the newest capacity events
// (capacity <= 0 selects the 64k-event default, 11.5 MiB once full). The ring
// is not allocated up front: it gains one ringChunk-event chunk at a time as
// spans first reach it, so a process that emits few never holds the full
// ring, and a filled slot is never copied — growing never holds an old and a
// new ring at once, whose sum would count as live to the collector's pacing.
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = 1 << 16
	}
	return &Tracer{
		t0:    time.Now(),
		size:  uint64(capacity),
		names: []string{"", internOther},
		index: map[string]uint16{internOther: 1},
	}
}

// Enabled reports whether the tracer records events.
func (t *Tracer) Enabled() bool { return t != nil }

// SetDropCounter attaches a live counter incremented on every event lost to
// the capacity bound, so overwrites are visible on /metrics without pulling a
// trace export. Safe on nil; a nil counter detaches.
func (t *Tracer) SetDropCounter(c *Counter) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.dropC = c
	t.mu.Unlock()
}

// Now returns the current timestamp on the tracer's timebase in microseconds.
func (t *Tracer) Now() float64 {
	if t == nil {
		return 0
	}
	return t.micros(time.Now())
}

func (t *Tracer) micros(at time.Time) float64 {
	return float64(at.Sub(t.t0)) / float64(time.Microsecond)
}

// intern maps s to its table index. Caller holds t.mu.
func (t *Tracer) intern(s string) uint16 {
	if s == "" {
		return 0
	}
	if id, ok := t.index[s]; ok {
		return id
	}
	if len(t.names) >= maxInterned {
		return 1
	}
	s = strings.Clone(s) // never pin a caller's larger buffer
	t.names = append(t.names, s)
	t.index[s] = uint16(len(t.names) - 1)
	return t.index[s]
}

// emit writes one event into the ring, overwriting the oldest when full.
func (t *Tracer) emit(ph byte, name, cat string, pid, tid int, ts, dur float64, a Args) {
	t.mu.Lock()
	var dropC *Counter
	if t.n >= t.size {
		dropC = t.dropC
	}
	slot := t.n % t.size
	if c := slot / ringChunk; c == uint64(len(t.ring)) {
		// Still filling, and slot is the first of a chunk not yet allocated.
		t.ring = append(t.ring, make([]event, min(ringChunk, t.size-slot)))
	}
	ev := t.at(slot)
	t.n++
	*ev = event{
		ts: ts, dur: dur, pid: int32(pid), tid: int32(tid), ph: ph, set: a.set,
		level: a.level, status: a.status, idx: a.idx, hoist: a.hoist,
		name: t.intern(name), cat: t.intern(cat),
		method: t.intern(a.method), argName: t.intern(a.name), argPhase: t.intern(a.phase),
	}
	ev.ridLen = uint8(copy(ev.rid[:], a.rid))
	t.mu.Unlock()
	dropC.Inc() // nil-safe; incremented outside the event lock
}

// Complete records an "X" complete event with an explicit timebase — the
// cycle simulator uses this to lay out synthetic (simulated-time) tracks.
func (t *Tracer) Complete(name, cat string, pid, tid int, tsMicros, durMicros float64, args Args) {
	if t == nil {
		return
	}
	t.emit('X', name, cat, pid, tid, tsMicros, durMicros, args)
}

// CompleteSince records an "X" complete event for work that started at the
// wall-clock time start and finishes now — the pattern instrumented code
// uses when it measured start with a plain time.Now() guard instead of
// carrying a Span.
func (t *Tracer) CompleteSince(name, cat string, pid, tid int, start time.Time, args Args) {
	if t == nil {
		return
	}
	dur := float64(time.Since(start)) / float64(time.Microsecond)
	t.emit('X', name, cat, pid, tid, t.micros(start), dur, args)
}

// Instant records an "i" instant event at the current wall-clock timestamp.
func (t *Tracer) Instant(name, cat string, pid, tid int, args Args) {
	if t == nil {
		return
	}
	t.emit('i', name, cat, pid, tid, t.Now(), 0, args)
}

// SetProcessName records the metadata event naming a pid's track group.
func (t *Tracer) SetProcessName(pid int, name string) {
	t.setMeta(Event{Name: "process_name", Ph: "M", PID: pid, Args: map[string]any{"name": name}})
}

// SetThreadName records the metadata event naming a (pid, tid) track.
func (t *Tracer) SetThreadName(pid, tid int, name string) {
	t.setMeta(Event{Name: "thread_name", Ph: "M", PID: pid, TID: tid, Args: map[string]any{"name": name}})
}

// setMeta keeps one metadata event per (kind, pid, tid), the latest winning,
// so re-naming a track on every simulator run does not grow the list.
func (t *Tracer) setMeta(m Event) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, old := range t.meta {
		if old.Name == m.Name && old.PID == m.PID && old.TID == m.TID {
			t.meta[i] = m
			return
		}
	}
	t.meta = append(t.meta, m)
}

// Span is an in-flight wall-clock span started by StartSpan. The zero Span
// (and any span from a nil tracer) is inert: End is a no-op.
type Span struct {
	tr       *Tracer
	name     string
	cat      string
	pid, tid int
	start    time.Time
}

// StartSpan opens a wall-clock span on track (pid, tid). Close it with End
// or EndArgs. On a nil tracer this performs no work (not even a clock read).
func (t *Tracer) StartSpan(name, cat string, pid, tid int) Span {
	if t == nil {
		return Span{}
	}
	return Span{tr: t, name: name, cat: cat, pid: pid, tid: tid, start: time.Now()}
}

// End closes the span, recording a complete event.
func (s Span) End() { s.EndArgs(Args{}) }

// EndArgs closes the span with attached arguments.
func (s Span) EndArgs(args Args) {
	s.tr.CompleteSince(s.name, s.cat, s.pid, s.tid, s.start, args)
}

// Len returns the number of retained events (metadata included).
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.meta) + int(t.kept())
}

// kept is the number of events the ring holds. Caller holds t.mu.
func (t *Tracer) kept() uint64 { return min(t.n, t.size) }

// at returns ring slot i (< size, in an allocated chunk). Caller holds t.mu.
func (t *Tracer) at(i uint64) *event { return &t.ring[i/ringChunk][i%ringChunk] }

// Dropped returns the number of events overwritten by newer ones.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n - t.kept()
}

// decode expands a ring event to its export form. Caller holds t.mu.
func (t *Tracer) decode(ev *event) Event {
	out := Event{
		Name: t.names[ev.name], Cat: t.names[ev.cat], Ph: string(ev.ph),
		TS: ev.ts, Dur: ev.dur, PID: int(ev.pid), TID: int(ev.tid),
	}
	if ev.set == 0 {
		return out
	}
	out.Args = make(map[string]any, 4)
	for _, arg := range []struct {
		bit uint8
		key string
		val any
	}{
		{argHoist, "hoist", int(ev.hoist)},
		{argIdx, "idx", int(ev.idx)},
		{argLevel, "level", int(ev.level)},
		{argMethod, "method", t.names[ev.method]},
		{argName, "name", t.names[ev.argName]},
		{argPhase, "phase", t.names[ev.argPhase]},
		{argRequestID, "request_id", string(ev.rid[:ev.ridLen])},
		{argStatus, "status", int(ev.status)},
	} {
		if ev.set&arg.bit != 0 {
			out.Args[arg.key] = arg.val
		}
	}
	return out
}

// Events returns the retained events decoded: track metadata first, then the
// ring oldest to newest.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, 0, len(t.meta)+int(t.kept()))
	out = append(out, t.meta...)
	for i := t.n - t.kept(); i < t.n; i++ {
		out = append(out, t.decode(t.at(i%t.size)))
	}
	return out
}

// chromeTraceFile is the JSON object format of the trace-event spec
// (preferred over the bare array format because it carries metadata).
type chromeTraceFile struct {
	TraceEvents     []Event        `json:"traceEvents"`
	DisplayTimeUnit string         `json:"displayTimeUnit"`
	Metadata        map[string]any `json:"metadata,omitempty"`
}

// WriteChromeTrace writes the retained events as Chrome trace-event JSON,
// loadable in chrome://tracing or https://ui.perfetto.dev. Safe on nil
// (writes an empty trace).
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	file := chromeTraceFile{TraceEvents: t.Events(), DisplayTimeUnit: "ms"}
	if d := t.Dropped(); d > 0 {
		file.Metadata = map[string]any{"dropped_events": d}
	}
	if file.TraceEvents == nil {
		file.TraceEvents = []Event{}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(file)
}

// Summary returns a human-readable per-(cat, name) digest of the retained
// complete events: count, total and mean duration, sorted by total duration
// descending. Safe on nil.
func (t *Tracer) Summary() string {
	type agg struct {
		key   string
		count int
		total float64
	}
	byKey := map[string]*agg{}
	for _, ev := range t.Events() {
		if ev.Ph != "X" {
			continue
		}
		key := ev.Cat + "/" + ev.Name
		a, ok := byKey[key]
		if !ok {
			a = &agg{key: key}
			byKey[key] = a
		}
		a.count++
		a.total += ev.Dur
	}
	rows := make([]*agg, 0, len(byKey))
	for _, a := range byKey {
		rows = append(rows, a)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].total != rows[j].total {
			return rows[i].total > rows[j].total
		}
		return rows[i].key < rows[j].key
	})
	var b strings.Builder
	fmt.Fprintf(&b, "trace: %d events buffered, %d dropped\n", t.Len(), t.Dropped())
	for _, a := range rows {
		fmt.Fprintf(&b, "  %-40s %8d spans  %12.1f us total  %10.2f us mean\n",
			a.key, a.count, a.total, a.total/float64(a.count))
	}
	return b.String()
}
