package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval recorded by the harness around a call into a
// layer's public surface. Parent is the span that caused it (-1 for a root);
// spans of one workload operation share Op (-1 for probe spans outside the
// workload loop).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until write. The nil tracer is the untraced
// run: every method is a no-op that costs one pointer check, so the same
// workload code runs with tracing on and off.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span and returns its id (-1 on the nil tracer).
func (t *tracer) start(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, StartNS: now, EndNS: -1})
	t.mu.Unlock()
	return id
}

// end closes a span opened by start.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].EndNS = now
	t.mu.Unlock()
}

// timed runs fn inside a span and returns its duration in nanoseconds. The
// duration is measured whether or not the tracer is on, so probes share one
// code path.
func (t *tracer) timed(name string, parent int, fn func()) float64 {
	id := t.start(name, parent, -1)
	s := time.Now()
	fn()
	d := time.Since(s)
	t.end(id)
	return float64(d.Nanoseconds())
}

// spanSummary is one row of the per-name roll-up written beside the spans.
type spanSummary struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	// SelfMS is total time minus the part covered by child spans.
	SelfMS float64 `json:"self_ms"`
}

// summarize rolls closed spans up by name. A span's self time is its duration
// minus the sum of its direct children's durations (children of one parent
// never overlap here: the harness opens them sequentially).
func summarize(spans []span) []spanSummary {
	childNS := make(map[int]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 && s.EndNS >= 0 {
			childNS[s.Parent] += s.EndNS - s.StartNS
		}
	}
	byName := map[string]*spanSummary{}
	for _, s := range spans {
		if s.EndNS < 0 {
			continue
		}
		r := byName[s.Name]
		if r == nil {
			r = &spanSummary{Name: s.Name}
			byName[s.Name] = r
		}
		d := s.EndNS - s.StartNS
		r.Count++
		r.TotalMS += float64(d) / 1e6
		r.SelfMS += float64(d-childNS[s.ID]) / 1e6
	}
	out := make([]spanSummary, 0, len(byName))
	for _, r := range byName {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// write dumps the spans and their roll-up as one JSON document.
func (t *tracer) write(path string, stamp envStamp) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	doc := struct {
		Env     envStamp      `json:"env"`
		Summary []spanSummary `json:"summary"`
		Spans   []span        `json:"spans"`
	}{stamp, summarize(spans), spans}
	raw, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
