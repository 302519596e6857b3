package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilTracerIsInert(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	sp := tr.StartSpan("x", "cat", 0, 0)
	sp.End()
	sp.EndArgs(Args{}.Method("v"))
	tr.Complete("n", "c", 0, 0, 0, 1, Args{})
	tr.CompleteSince("n", "c", 0, 0, time.Now(), Args{})
	tr.Instant("i", "c", 0, 0, Args{})
	tr.SetProcessName(0, "p")
	tr.SetThreadName(0, 0, "t")
	if tr.Len() != 0 || tr.Dropped() != 0 || tr.Events() != nil {
		t.Fatal("nil tracer retained state")
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		TraceEvents []Event `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("nil tracer export is not valid JSON: %v", err)
	}
	if len(decoded.TraceEvents) != 0 {
		t.Fatal("nil tracer export has events")
	}
	if !strings.Contains(tr.Summary(), "0 events") {
		t.Fatalf("nil summary: %q", tr.Summary())
	}
}

// TestTracerRingWrapAround pins the ring contract: a tracer with capacity c
// retains the NEWEST c events in emission order, counts every overwrite, keeps
// the track metadata emitted before the wrap, and still exports Chrome trace
// JSON with the fields TestObsSmoke reads.
func TestTracerRingWrapAround(t *testing.T) {
	const capacity = 16
	tr := NewTracer(capacity)
	tr.SetProcessName(3, "fastd http")
	for i := 0; i < 3*capacity; i++ {
		tr.Complete("ev", "test", 3, 0, float64(i), 1, Args{}.Idx(i).RequestID("req-x").Status(200))
	}
	if got := tr.Len(); got != capacity+1 { // + the process_name metadata
		t.Fatalf("len = %d, want %d", got, capacity+1)
	}
	if got := tr.Dropped(); got != 2*capacity {
		t.Fatalf("dropped = %d, want %d", got, 2*capacity)
	}
	evs := tr.Events()
	if evs[0].Ph != "M" || evs[0].Args["name"] != "fastd http" {
		t.Fatalf("metadata did not survive the wrap: %+v", evs[0])
	}
	for i, ev := range evs[1:] {
		if want := 2*capacity + i; ev.TS != float64(want) || ev.Args["idx"] != want {
			t.Fatalf("event %d = %+v, want the newest %d in order starting at ts %d", i, ev, capacity, 2*capacity)
		}
	}
	// The drop count must surface in the export metadata and the summary.
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			PID  int            `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		Metadata map[string]any `json:"metadata"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	if d, ok := decoded.Metadata["dropped_events"].(float64); !ok || d != 2*capacity {
		t.Fatalf("export metadata dropped_events = %v", decoded.Metadata)
	}
	last := decoded.TraceEvents[len(decoded.TraceEvents)-1]
	if last.Ph != "X" || last.PID != 3 || last.Name != "ev" ||
		last.Args["request_id"] != "req-x" || last.Args["status"] != 200.0 {
		t.Fatalf("exported span = %+v", last)
	}
	if !strings.Contains(tr.Summary(), "32 dropped") {
		t.Fatalf("summary does not report drops: %q", tr.Summary())
	}
}

// TestTracerEventsPointerFree walks the ring's event type and fails on any
// kind the collector would have to scan: the ring is allocated once and the
// garbage collector must never look inside it.
func TestTracerEventsPointerFree(t *testing.T) {
	var walk func(path string, ty reflect.Type)
	walk = func(path string, ty reflect.Type) {
		switch ty.Kind() {
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
			reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		case reflect.Array:
			walk(path+"[]", ty.Elem())
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				walk(path+"."+ty.Field(i).Name, ty.Field(i).Type)
			}
		default:
			t.Errorf("%s is a %s: the ring's event must hold no pointers", path, ty.Kind())
		}
	}
	walk("event", reflect.TypeOf(event{}))
	if sz := reflect.TypeOf(event{}).Size(); sz != 184 {
		t.Errorf("event is %d bytes; NewTracer's doc and DESIGN.md state 184 (11.5 MiB at 64k)", sz)
	}
}

// TestTracerArgsAndBounds: every key of the fixed argument set round-trips
// with its type, an empty request ID sets nothing, an over-long one is cut to
// the inline size, and the intern table stops growing at its bound.
func TestTracerArgsAndBounds(t *testing.T) {
	tr := NewTracer(maxInterned + 64)
	long := strings.Repeat("r", ridInline+10)
	tr.Complete("op", "cat", 1, 2, 5, 7, Args{}.Method("klss").Level(0).RequestID(long).
		Status(404).Idx(0).Name("n").Hoist(4).Phase("EvalMod"))
	tr.Complete("bare", "cat", 1, 2, 5, 7, Args{}.RequestID(""))
	evs := tr.Events()
	want := map[string]any{"method": "klss", "level": 0, "request_id": long[:ridInline],
		"status": 404, "idx": 0, "name": "n", "hoist": 4, "phase": "EvalMod"}
	if !reflect.DeepEqual(evs[0].Args, want) {
		t.Fatalf("args = %v, want %v", evs[0].Args, want)
	}
	if evs[1].Args != nil {
		t.Fatalf("an empty request ID must set no argument: %v", evs[1].Args)
	}
	for i := 0; i < maxInterned+32; i++ {
		tr.Complete("GET /v1/sessions/s"+strconv.Itoa(i), "http", 3, 0, 0, 1, Args{})
	}
	evs = tr.Events()
	if got := evs[len(evs)-1].Name; got != internOther {
		t.Fatalf("name past the intern bound = %q, want %q", got, internOther)
	}
	if got := evs[2].Name; got != "GET /v1/sessions/s0" {
		t.Fatalf("name inside the intern bound = %q", got)
	}
}

// TestTracerConcurrentEmit hammers Emit and the read paths from 8 goroutines
// (exercised under -race by `make race`): buffered + dropped must equal the
// number of emitted events exactly.
func TestTracerConcurrentEmit(t *testing.T) {
	const (
		goroutines = 8
		perG       = 1000
		capacity   = 2048
	)
	tr := NewTracer(capacity)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if i%100 == 0 {
					// Interleave readers with writers.
					_ = tr.Len()
					_ = tr.Events()
				}
				sp := tr.StartSpan("op", "hammer", 0, id)
				sp.EndArgs(Args{}.Idx(i))
			}
		}(g)
	}
	wg.Wait()
	total := uint64(tr.Len()) + tr.Dropped()
	if total != goroutines*perG {
		t.Fatalf("buffered %d + dropped %d = %d, want %d",
			tr.Len(), tr.Dropped(), total, goroutines*perG)
	}
	if tr.Len() != capacity {
		t.Fatalf("buffer should be full: %d/%d", tr.Len(), capacity)
	}
}

// TestChromeTraceSchema decodes an export and checks the trace-event schema
// fields Chrome requires: every event has name/ph/ts/pid/tid, complete
// events carry durations, metadata events carry name args.
func TestChromeTraceSchema(t *testing.T) {
	tr := NewTracer(64)
	tr.SetProcessName(7, "simulated-accelerator")
	tr.SetThreadName(7, 1, "NTTU")
	tr.Complete("kernel", "sim", 7, 1, 10, 5, Args{}.Phase("HMult"))
	sp := tr.StartSpan("Mul", "eval", 1, 0)
	time.Sleep(time.Millisecond)
	sp.EndArgs(Args{}.Method("hybrid").Level(3))
	tr.Instant("marker", "eval", 1, 0, Args{})

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		TraceEvents     []map[string]any `json:"traceEvents"`
		DisplayTimeUnit string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if decoded.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", decoded.DisplayTimeUnit)
	}
	if len(decoded.TraceEvents) != 5 {
		t.Fatalf("got %d events, want 5", len(decoded.TraceEvents))
	}
	phases := map[string]int{}
	for _, ev := range decoded.TraceEvents {
		for _, field := range []string{"name", "ph", "ts", "pid", "tid"} {
			if _, ok := ev[field]; !ok {
				t.Errorf("event %v missing %q", ev, field)
			}
		}
		ph := ev["ph"].(string)
		phases[ph]++
		switch ph {
		case "X":
			if _, ok := ev["dur"]; !ok {
				t.Errorf("complete event %v missing dur", ev)
			}
		case "M":
			args, ok := ev["args"].(map[string]any)
			if !ok || args["name"] == nil {
				t.Errorf("metadata event %v missing args.name", ev)
			}
		}
	}
	if phases["X"] != 2 || phases["M"] != 2 || phases["i"] != 1 {
		t.Errorf("phase histogram = %v", phases)
	}
	// The wall-clock span must have a plausible duration (>= 1 ms sleep).
	for _, ev := range decoded.TraceEvents {
		if ev["name"] == "Mul" {
			if dur := ev["dur"].(float64); dur < 900 {
				t.Errorf("span dur = %v us, want >= ~1000", dur)
			}
			args := ev["args"].(map[string]any)
			if args["method"] != "hybrid" {
				t.Errorf("span args = %v", args)
			}
		}
	}
}

func TestSummaryAggregates(t *testing.T) {
	tr := NewTracer(64)
	tr.Complete("a", "c", 0, 0, 0, 10, Args{})
	tr.Complete("a", "c", 0, 0, 10, 30, Args{})
	tr.Complete("b", "c", 0, 0, 40, 5, Args{})
	s := tr.Summary()
	if !strings.Contains(s, "c/a") || !strings.Contains(s, "c/b") {
		t.Fatalf("summary missing keys:\n%s", s)
	}
	// c/a has the larger total and must come first.
	if strings.Index(s, "c/a") > strings.Index(s, "c/b") {
		t.Fatalf("summary not sorted by total duration:\n%s", s)
	}
}
