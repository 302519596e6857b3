package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"strconv"
	"time"
)

// serveChurn: one fastd with -max-resident-sessions 3, ONE client running a
// seeded schedule over six sessions: warm evals, cold evals (evict-to-disk +
// lazy restore), session creates, idempotent retries. Every eval carries a
// unique Idempotency-Key. It uses the same fastd/fast snapshot layers as
// serve_hot the other way round — writes beside reads. One client keeps the
// LRU order, the restore count and the journal sizes identical run to run.
type serveChurn struct {
	env      *runEnv
	d        *daemon
	stateDir string
	c        *client
	rng      *rand.Rand // schedule stream
	keyRng   *rand.Rand // plaintexts and session seeds
	model    *lruModel
	slots    [churnSessions]*evalTarget
	keySeq   int
	// prev is the last eval sent: the retry op replays its key and must get
	// its bytes back, marked Idempotency-Replayed.
	prevKey   string
	prevReply []byte
	minBits   float64
}

func newServeChurn(env *runEnv) *serveChurn { return &serveChurn{env: env} }

func (s *serveChurn) sutPID() int        { return s.d.pid() }
func (s *serveChurn) precision() float64 { return s.minBits }

func (s *serveChurn) daemonFlags() []string {
	return []string{"-shards", "1", "-workers", "2",
		"-max-resident-sessions", strconv.Itoa(churnResident), "-max-sessions", "16"}
}

func (s *serveChurn) nextKey() string {
	s.keySeq++
	return fmt.Sprintf("bench-%d-%d", s.env.seed, s.keySeq)
}

// newSession creates a session and its eval target (input encrypted).
func (s *serveChurn) newSession() (*evalTarget, float64, error) {
	spec, err := json.Marshal(sessionSpecFor(serveConfig(s.env.size, 1+s.keyRng.Int63n(1<<30))))
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	status, _, body, err := s.c.do(http.MethodPost, "/v1/sessions", spec, "")
	createMS := float64(time.Since(t0).Nanoseconds()) / 1e6
	if err != nil {
		return nil, 0, err
	}
	if status != http.StatusOK {
		return nil, 0, fmt.Errorf("create session: status %d: %s", status, truncate(body, 160))
	}
	var si sessionInfo
	if err := json.Unmarshal(body, &si); err != nil {
		return nil, 0, err
	}
	t, err := newEvalTarget(s.c, si.ID, seededVector(s.keyRng, si.Slots))
	return t, createMS, err
}

// eval posts t's request under a fresh Idempotency-Key and checks the reply.
// It returns the latency, the time spent verifying (first reply only: the
// decrypt round trip is the harness's, not the workload's) and "" if correct.
func (s *serveChurn) eval(t *evalTarget) (ms float64, verify time.Duration, msg string) {
	key := s.nextKey()
	t0 := time.Now()
	status, hdr, body, err := s.c.do(http.MethodPost, "/v1/sessions/"+t.session+"/eval", t.body, key)
	ms = float64(time.Since(t0).Nanoseconds()) / 1e6
	if err != nil {
		return ms, 0, err.Error()
	}
	if hdr.Get("Idempotency-Replayed") != "" {
		return ms, 0, "a first use of an Idempotency-Key was answered as a replay"
	}
	s.prevKey, s.prevReply = key, append(s.prevReply[:0], body...)
	first := t.want == nil
	v0 := time.Now()
	msg = t.check(s.c, status, body, precisionFloor[wlServeChurn])
	if first {
		verify = time.Since(v0)
	}
	return ms, verify, msg
}

func (s *serveChurn) setUp() error {
	dir, err := s.env.scratchDir("churn-state-")
	if err != nil {
		return err
	}
	s.stateDir = dir
	if s.d, err = spawnFastd(s.env.fastdBin, dir, s.daemonFlags()...); err != nil {
		return err
	}
	s.c = newClient(s.d.base)
	s.rng, s.keyRng = s.env.rng(2), s.env.rng(5)
	s.model = newLRUModel(churnSessions, churnResident)
	s.keySeq, s.minBits = 0, 0
	for i := range s.slots {
		if s.slots[i], _, err = s.newSession(); err != nil {
			return err
		}
	}
	// Warm-up, one eval per session in slot order. With three of six sessions
	// resident every one of these is a restore, so the restore path is proven
	// before the clock starts, and the LRU order ends as the model begins.
	// precision_bits is the lowest over these six first replies, so that it
	// depends on the seed alone; sessions created inside the window are held
	// to the floor but, their number depending on speed, not to the metric.
	for i, t := range s.slots {
		if _, _, msg := s.eval(t); msg != "" {
			return fmt.Errorf("serve_churn warm-up: %s", msg)
		}
		if i == 0 || t.bits < s.minBits {
			s.minBits = t.bits
		}
	}
	return nil
}

func (s *serveChurn) run(d time.Duration, tr *tracer) (*window, error) {
	w := newWindow()
	var err error
	if w.before, err = s.c.scrape(); err != nil {
		return nil, err
	}
	cpu0, err := procCPUSeconds(s.d.pid())
	if err != nil {
		return nil, err
	}
	self0 := selfCPUSeconds()
	restores0 := s.model.restores
	start := time.Now()
	deadline := start.Add(d)
	n := 0
	// Whole blocks only: every window then holds the schedule's exact mix.
	for time.Now().Before(deadline) && (s.env.maxOps == 0 || n < s.env.maxOps) {
		for _, op := range nextBlock(s.rng, s.model) {
			s.step(op, n, w, tr)
			n++
		}
	}
	w.elapsed = time.Since(start)
	w.harnessCPU = selfCPUSeconds() - self0
	cpu1, err := procCPUSeconds(s.d.pid())
	if err != nil {
		return nil, err
	}
	w.sutCPU = cpu1 - cpu0
	if w.after, err = s.c.scrape(); err != nil {
		return nil, err
	}
	w.counts["model_restores"] = float64(s.model.restores - restores0)
	w.counts["disk_mb"] = dirSizeMB(s.stateDir)
	return w, nil
}

// step executes one scheduled operation and records it.
func (s *serveChurn) step(op churnOp, n int, w *window, tr *tracer) {
	root := tr.start("op."+op.kind.String(), -1, n)
	defer tr.end(root)
	switch op.kind {
	case opWarm, opCold:
		hs := tr.start("fastd.http_eval", root, n)
		ms, verify, msg := s.eval(s.slots[op.slot])
		tr.end(hs)
		w.excluded += verify
		if msg != "" {
			w.fail("%s eval: %s", op.kind, msg)
			return
		}
		w.record(op.kind.String(), ms)
		w.counts["wire_bytes"] += float64(len(s.slots[op.slot].body) + len(s.prevReply))
		w.counts["evals"]++
	case opRetry:
		t := s.slots[op.slot]
		hs := tr.start("fastd.http_replay", root, n)
		t0 := time.Now()
		status, hdr, body, err := s.c.do(http.MethodPost, "/v1/sessions/"+t.session+"/eval", t.body, s.prevKey)
		ms := float64(time.Since(t0).Nanoseconds()) / 1e6
		tr.end(hs)
		switch {
		case err != nil:
			w.fail("retry: %v", err)
		case status != http.StatusOK:
			w.fail("retry: status %d", status)
		case hdr.Get("Idempotency-Replayed") != "true":
			w.fail("retry of key %s was not marked Idempotency-Replayed", s.prevKey)
		case !bytes.Equal(body, s.prevReply):
			w.fail("retry of key %s returned different bytes than the recorded reply", s.prevKey)
		default:
			w.record("retry", ms)
		}
	case opCreate:
		// Replace the coldest session: DELETE it, create a fresh one, encrypt
		// its input. The operation's latency is all three; create_p50_ms is
		// the POST alone.
		old := s.slots[op.slot]
		t0 := time.Now()
		ds := tr.start("fastd.http_delete", root, n)
		status, _, _, err := s.c.do(http.MethodDelete, "/v1/sessions/"+old.session, nil, "")
		tr.end(ds)
		if err != nil || status != http.StatusNoContent {
			w.fail("delete %s: status %d err %v", old.session, status, err)
			return
		}
		cs := tr.start("fastd.http_create", root, n)
		t, createMS, err := s.newSession()
		tr.end(cs)
		if err != nil {
			w.fail("create: %v", err)
			return
		}
		s.slots[op.slot] = t
		w.record("create", float64(time.Since(t0).Nanoseconds())/1e6)
		w.classMS["create_post"] = append(w.classMS["create_post"], createMS)
	}
}

func (s *serveChurn) tearDown() {
	if s.c != nil {
		s.c.close()
	}
	s.d.stop()
	_ = os.RemoveAll(s.stateDir)
	*s = serveChurn{env: s.env}
}
