package fast

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
)

// TestPlanRecordRequestIDs pins the library-level correlation contract: a
// request ID attached to a run's context (ContextWithRequestID) is listed on
// every PlanRecord of the ExecuteBatch call the run executed in, in run
// order, and each executed run learns its batch sequence number.
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
		{Plan: plan, Inputs: shared}, // anonymous: contributes no ID
	}
	ctx.ExecuteBatch(runs)
	for i, run := range runs {
		if run.Err != nil {
			t.Fatalf("run %d: %v", i, run.Err)
		}
		if run.Batch == 0 {
			t.Fatalf("run %d: Batch = 0, want the batch sequence", i)
		}
		if run.Batch != runs[0].Batch {
			t.Fatalf("run %d: Batch = %d, batchmate has %d", i, run.Batch, runs[0].Batch)
		}
	}

	recs := ob.PlanRecords()
	if len(recs) != len(runs) {
		t.Fatalf("got %d plan records, want %d", len(recs), len(runs))
	}
	for _, rec := range recs {
		if rec.Batch != runs[0].Batch {
			t.Fatalf("record batch %d != runs' %d", rec.Batch, runs[0].Batch)
		}
		if len(rec.RequestIDs) != 2 || rec.RequestIDs[0] != "req-a" || rec.RequestIDs[1] != "req-b" {
			t.Fatalf("record RequestIDs = %v, want [req-a req-b] in run order", rec.RequestIDs)
		}
	}

	// The IDs survive the JSON shape /debug/plans serves.
	raw, err := json.Marshal(recs[0])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(raw, []byte(`"request_ids":["req-a","req-b"]`)) {
		t.Fatalf("marshaled record lacks request_ids: %s", raw)
	}
}

// TestPlanRecordRequestIDsOmittedWhenAbsent: batches with no tagged run keep
// the field empty (and omitted from JSON), so untagged library use stays
// byte-identical to before the field existed.
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
	if recs[0].RequestIDs != nil {
		t.Fatalf("untagged run produced RequestIDs %v", recs[0].RequestIDs)
	}
	raw, err := json.Marshal(recs[0])
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(raw, []byte("request_ids")) {
		t.Fatalf("request_ids must be omitted when empty: %s", raw)
	}
}

// TestWithRequestIDOpOption: the per-op option tags spans regardless of
// whether WithContext is also supplied, in either order.
func TestWithRequestIDOpOption(t *testing.T) {
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
	if _, err := ctx.Mul(enc, enc, WithRequestID("op-req-1")); err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.Mul(enc, enc, WithContext(context.Background()), WithRequestID("op-req-2")); err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.Mul(enc, enc, WithRequestID("op-req-3"), WithContext(context.Background())); err != nil {
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
