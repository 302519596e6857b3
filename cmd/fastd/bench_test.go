package main

// BenchmarkServeThroughput measures end-to-end eval throughput of the daemon
// under concurrent load: many clients posting the same rotation-fan-out
// program to one session. This is the workload cross-request micro-batching
// exists for — the coalescer merges the shared-source rotations of
// concurrently queued requests into one hoisted ModUp.

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	fast "github.com/fastfhe/fast"
)

func benchPost(b *testing.B, url string, body any, out any) bool {
	b.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		b.Error(err)
		return false
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		b.Error(err)
		return false
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		b.Error(err)
		return false
	}
	if resp.StatusCode != http.StatusOK {
		b.Errorf("%s: status %d: %s", url, resp.StatusCode, payload)
		return false
	}
	if out != nil {
		if err := json.Unmarshal(payload, out); err != nil {
			b.Error(err)
			return false
		}
	}
	return true
}

func BenchmarkServeThroughput(b *testing.B) {
	// One worker: evaluation serializes, so concurrent requests queue — the
	// queue wait is the coalescing window (that is the regime batching is
	// for; with an idle pool every batch has size 1).
	d, err := newDaemon(daemonConfig{Workers: 1, QueueDepth: 256})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(d.handler())
	defer ts.Close()

	// Production-shaped parameters (DefaultConfig-sized ring) so evaluation
	// dominates the HTTP/JSON overhead.
	sessReq := testSessionRequest()
	sessReq.LogN = 11
	sessReq.Levels = 5
	var sr sessionResponse
	if !benchPost(b, ts.URL+"/v1/sessions", sessReq, &sr) {
		b.FailNow()
	}
	vals := make([]cnum, sr.Slots)
	for i := range vals {
		vals[i] = cnum{Re: 0.01 * float64(i%17), Im: -0.02}
	}
	var enc ciphertextResponse
	if !benchPost(b, ts.URL+"/v1/sessions/"+sr.ID+"/encrypt", map[string]any{"values": vals}, &enc) {
		b.FailNow()
	}

	prog := fast.NewProgram().In("x").
		Rotate("a", "x", 1).
		Rotate("b", "x", 4).
		Rotate("c", "x", -1).
		Add("s1", "a", "b").
		Add("s2", "s1", "c").
		AddConst("out", "s2", 0.5).
		Return("out")
	rawProg, err := json.Marshal(prog)
	if err != nil {
		b.Fatal(err)
	}
	req := map[string]any{
		"inputs":  map[string]string{"x": enc.Ciphertext},
		"program": json.RawMessage(rawProg),
	}

	// More client goroutines than GOMAXPROCS so requests actually queue —
	// the queue wait is the batching window.
	b.SetParallelism(8)
	var served atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		var cr ciphertextResponse
		for pb.Next() {
			if !benchPost(b, ts.URL+"/v1/sessions/"+sr.ID+"/eval", req, &cr) {
				return
			}
			served.Add(1)
		}
	})
	b.StopTimer()
	if served.Load() == 0 {
		b.Fatal("no requests served")
	}
}
