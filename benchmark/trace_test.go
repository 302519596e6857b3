package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestNilTracerIsANoOp(t *testing.T) {
	var tr *tracer
	id := tr.start("x", -1, 0)
	tr.end(id)
	ran := false
	if ns := tr.timed("y", id, func() { ran = true }); !ran || ns < 0 {
		t.Fatal("timed must still run and time fn on the nil tracer")
	}
	if err := tr.write(filepath.Join(t.TempDir(), "none.json"), envStamp{}); err != nil {
		t.Fatal(err)
	}
}

func TestSummarizeSelfTime(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "op", StartNS: 0, EndNS: 10e6},
		{ID: 1, Parent: 0, Name: "http", StartNS: 1e6, EndNS: 7e6},
		{ID: 2, Parent: 0, Name: "verify", StartNS: 7e6, EndNS: 8e6},
		{ID: 3, Parent: -1, Name: "op", StartNS: 10e6, EndNS: 14e6},
		{ID: 4, Parent: 3, Name: "http", StartNS: 10e6, EndNS: 13e6},
		{ID: 5, Parent: -1, Name: "open", StartNS: 14e6, EndNS: -1}, // never closed: ignored
	}
	got := map[string]spanSummary{}
	for _, s := range summarize(spans) {
		got[s.Name] = s
	}
	if len(got) != 3 {
		t.Fatalf("summary rows: %v", got)
	}
	if op := got["op"]; op.Count != 2 || op.TotalMS != 14 || op.SelfMS != 4 {
		t.Errorf("op: %+v, want count 2 total 14 self 4 (10-6-1 + 4-3)", op)
	}
	if h := got["http"]; h.Count != 2 || h.TotalMS != 9 || h.SelfMS != 9 {
		t.Errorf("http: %+v", h)
	}
}

func TestTraceFileShape(t *testing.T) {
	tr := newTracer()
	root := tr.start("op.eval", -1, 42)
	child := tr.start("fastd.http_eval", root, 42)
	tr.end(child)
	tr.end(root)
	path := filepath.Join(t.TempDir(), "w.trace.json")
	if err := tr.write(path, envStamp{Seed: 9, Kernels: "avx2"}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Env     envStamp      `json:"env"`
		Summary []spanSummary `json:"summary"`
		Spans   []span        `json:"spans"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Env.Seed != 9 || len(doc.Spans) != 2 || len(doc.Summary) != 2 {
		t.Fatalf("unexpected trace document: %+v", doc)
	}
	if s := doc.Spans[1]; s.Parent != 0 || s.Op != 42 || s.Name != "fastd.http_eval" || s.EndNS < s.StartNS {
		t.Errorf("child span: %+v", s)
	}
}
