package fast

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"slices"
	"testing"
)

// TestPlanRecordRequestIDs pins the library-level correlation contract:
// every executed run leaves one PlanRecord, and a request ID attached to the
// run's context (ContextWithRequestID) is that record's RequestID — the one
// join key between the plan ring and the serving layer.
func TestPlanRecordRequestIDs(t *testing.T) {
	ob := NewObserver()
	cfg := DefaultConfig()
	cfg.LogN = 9
	cfg.Levels = 3
	cfg.Seed = 13
	ctx, err := NewContext(cfg, WithObserver(ob))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := ctx.Plan(differentialPrograms()["fanout"], nil)
	if err != nil {
		t.Fatal(err)
	}
	shared := chaosPlanInputs(ctx, t, 6)
	runs := []*Run{
		{Plan: plan, Inputs: shared, Ctx: ContextWithRequestID(context.Background(), "req-a")},
		{Plan: plan, Inputs: shared, Ctx: ContextWithRequestID(context.Background(), "req-b")},
		{Plan: plan, Inputs: shared}, // anonymous: its record carries no ID
	}
	ctx.ExecuteBatch(runs)
	for i, run := range runs {
		if run.Err != nil {
			t.Fatalf("run %d: %v", i, run.Err)
		}
	}
	if _, err := ctx.Execute(ContextWithRequestID(context.Background(), "req-c"), plan, shared); err != nil {
		t.Fatal(err)
	}

	recs := ob.PlanRecords()
	want := []string{"req-a", "req-b", "", "req-c"}
	if len(recs) != len(want) {
		t.Fatalf("got %d plan records, want %d", len(recs), len(want))
	}
	for i, rec := range recs {
		if rec.RequestID != want[i] || rec.Fingerprint != plan.Fingerprint() {
			t.Fatalf("record %d: request ID %q fingerprint %s, want %q and %s", i, rec.RequestID, rec.Fingerprint, want[i], plan.Fingerprint())
		}
	}

	// The ID survives the JSON shape /debug/plans serves.
	raw, err := json.Marshal(recs[0])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(raw, []byte(`"request_id":"req-a"`)) {
		t.Fatalf("marshaled record lacks request_id: %s", raw)
	}
}

// TestPlanRecordOfFailedRunCarriesRequestID: a run that fails — here on a
// context canceled before it started — still leaves its record, marked Err and
// carrying its request ID, so a failed request joins the plan ring as a
// served one does.
func TestPlanRecordOfFailedRunCarriesRequestID(t *testing.T) {
	ob := NewObserver()
	cfg := DefaultConfig()
	cfg.LogN = 9
	cfg.Levels = 3
	cfg.Seed = 13
	ctx, err := NewContext(cfg, WithObserver(ob))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := ctx.Plan(differentialPrograms()["fanout"], nil)
	if err != nil {
		t.Fatal(err)
	}
	canceled, cancel := context.WithCancel(ContextWithRequestID(context.Background(), "req-gone"))
	cancel()
	if _, err := ctx.Execute(canceled, plan, chaosPlanInputs(ctx, t, 6)); !errors.Is(err, ErrCanceled) {
		t.Fatalf("execute on a canceled context: %v, want ErrCanceled", err)
	}
	recs := ob.PlanRecords()
	if len(recs) != 1 || recs[0].RequestID != "req-gone" || !recs[0].Err {
		t.Fatalf("records %+v, want one failed record for req-gone", recs)
	}
}

// TestExecuteBatchIsAnExecuteLoop: ExecuteBatch reports on each run exactly
// what Execute returns for it — the same output bytes, the same failure —
// skips a nil run, and leaves one plan record per run that started, in order.
// A run refused before it starts (here, a missing input) leaves none.
func TestExecuteBatchIsAnExecuteLoop(t *testing.T) {
	ob := NewObserver()
	cfg := DefaultConfig()
	cfg.LogN = 9
	cfg.Levels = 3
	cfg.Seed = 13
	ctx, err := NewContext(cfg, WithObserver(ob))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := ctx.Plan(differentialPrograms()["fanout"], nil)
	if err != nil {
		t.Fatal(err)
	}
	a, b := chaosPlanInputs(ctx, t, 1), chaosPlanInputs(ctx, t, 2)
	runs := []*Run{
		{Plan: plan, Inputs: a, Ctx: ContextWithRequestID(context.Background(), "a")},
		nil,
		{Plan: plan, Inputs: map[string]*Ciphertext{"x": a["x"]}, Ctx: ContextWithRequestID(context.Background(), "short")},
		{Plan: plan, Inputs: b, Ctx: ContextWithRequestID(context.Background(), "b")},
	}
	ctx.ExecuteBatch(runs)
	if !errors.Is(runs[2].Err, ErrInvalidProgram) || runs[2].Out != nil {
		t.Fatalf("run without its inputs: out %v, error %v; want ErrInvalidProgram", runs[2].Out, runs[2].Err)
	}
	for _, i := range []int{0, 3} {
		want, err := ctx.Execute(context.Background(), plan, runs[i].Inputs)
		if err != nil || runs[i].Err != nil {
			t.Fatalf("run %d: batch error %v, Execute error %v", i, runs[i].Err, err)
		}
		if !bytes.Equal(ctBytes(t, runs[i].Out), ctBytes(t, want)) {
			t.Fatalf("run %d: batch output differs from Execute's", i)
		}
	}
	var ids []string
	for _, rec := range ob.PlanRecords() {
		ids = append(ids, rec.RequestID)
	}
	if want := []string{"a", "b", "", ""}; !slices.Equal(ids, want) {
		t.Fatalf("record request IDs %q, want %q (the batch's two runs, then the two Execute calls)", ids, want)
	}
}

// TestPlanRecordRequestIDsOmittedWhenAbsent: an untagged run keeps the field
// empty (and omitted from JSON), so untagged library use stays byte-identical
// to before the field existed.
func TestPlanRecordRequestIDsOmittedWhenAbsent(t *testing.T) {
	ob := NewObserver()
	cfg := DefaultConfig()
	cfg.LogN = 9
	cfg.Levels = 3
	cfg.Seed = 13
	ctx, err := NewContext(cfg, WithObserver(ob))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := ctx.Plan(differentialPrograms()["fanout"], nil)
	if err != nil {
		t.Fatal(err)
	}
	out, err := ctx.Execute(context.Background(), plan, chaosPlanInputs(ctx, t, 6))
	if err != nil || out == nil {
		t.Fatalf("execute: %v", err)
	}
	recs := ob.PlanRecords()
	if len(recs) != 1 {
		t.Fatalf("got %d plan records, want 1", len(recs))
	}
	if recs[0].RequestID != "" {
		t.Fatalf("untagged run produced RequestID %q", recs[0].RequestID)
	}
	raw, err := json.Marshal(recs[0])
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(raw, []byte("request_id")) {
		t.Fatalf("request_id must be omitted when empty: %s", raw)
	}
}

// TestContextRequestIDTagsOpSpans: an op run under WithContext of a context
// tagged by ContextWithRequestID carries the ID on its spans, whatever other
// options come with it and in whichever order.
func TestContextRequestIDTagsOpSpans(t *testing.T) {
	ob := NewTracingObserver(0)
	cfg := DefaultConfig()
	cfg.LogN = 9
	cfg.Levels = 3
	cfg.Seed = 13
	ctx, err := NewContext(cfg, WithObserver(ob))
	if err != nil {
		t.Fatal(err)
	}
	enc, err := ctx.Encrypt([]complex128{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	tagged := func(id string) OpOption { return WithContext(ContextWithRequestID(context.Background(), id)) }
	if _, err := ctx.Mul(enc, enc, tagged("op-req-1")); err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.Mul(enc, enc, WithMethod(Hybrid), tagged("op-req-2")); err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.Mul(enc, enc, tagged("op-req-3"), NoRescale()); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := ob.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, ev := range trace.TraceEvents {
		if id, _ := ev.Args["request_id"].(string); id != "" {
			seen[id] = true
		}
	}
	for _, want := range []string{"op-req-1", "op-req-2", "op-req-3"} {
		if !seen[want] {
			t.Fatalf("no span carries request_id %s (saw %v)", want, seen)
		}
	}
}
