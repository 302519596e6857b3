package main

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"

	fast "github.com/fastfhe/fast"
	"github.com/fastfhe/fast/internal/hemera"
	"github.com/fastfhe/fast/internal/serve"
)

// serveRig is what the serving-layer probes need from a serving workload.
type serveRig struct {
	env      *runEnv
	d        **daemon // the workload's daemon; restart probes replace it
	stateDir string
	flags    []string
	// live lists the sessions that exist on the daemon with a recorded
	// reference reply: after a kill and restart each must answer with the
	// same bytes.
	live []*evalTarget
}

// scrapedLayers derives the per-layer metrics that come from fastd's own
// counters, as deltas over the traced window, and the churn-specific timings
// the harness classified itself. It runs after fastLayers: the overhead
// metrics subtract the in-process snapshot and key-generation costs.
func scrapedLayers(all []*window, tw *window, m metricSet) {
	// class gathers one class's latencies over every window, in time order.
	class := func(name string) []float64 {
		var out []float64
		for _, w := range all {
			if name == "" {
				out = append(out, w.latMS...)
			} else {
				out = append(out, w.classMS[name]...)
			}
		}
		return out
	}
	b, a := tw.before, tw.after
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	cnt, sum := histDelta(b, a, "serve.admission_wait_ns")
	m["serve.queue_wait_ms"] = ratio(sum, cnt) / 1e6
	cnt, sum = histDelta(b, a, "serve.service_ns")
	m["serve.service_ms"] = ratio(sum, cnt) / 1e6
	cnt, sum = histDelta(b, a, "serve.batch.size")
	m["serve.batch_size_mean"] = ratio(sum, cnt)
	hits, misses := counterDelta(b, a, "serve.plan_cache.hits"), counterDelta(b, a, "serve.plan_cache.misses")
	m["serve.plan_cache_hit_share"] = ratio(hits, hits+misses)
	hits, misses = counterDelta(b, a, "hemera.shared.hits"), counterDelta(b, a, "hemera.shared.misses")
	m["hemera.shared_hit_share"] = ratio(hits, hits+misses)
	m["ring.pool_miss_share"] = ratio(counterDelta(b, a, "ring.pool.evaluator.misses"), counterDelta(b, a, "ring.pool.evaluator.gets"))
	hy, _ := histDelta(b, a, "ckks.keyswitch.hybrid.modup_ns")
	kl, _ := histDelta(b, a, "ckks.keyswitch.klss.modup_ns")
	m["ckks.keyswitch_per_op"] = ratio(hy+kl, tw.counts["evals"])

	m["fastd.wire_kb_per_op"] = ratio(tw.counts["wire_bytes"], tw.counts["evals"]) / 1024
	m["fastd.disk_mb"] = tw.counts["disk_mb"]

	// The daemon's p99 gauge covers its whole life; the client's p99 covers
	// every window, which is nearly all of it.
	last := all[len(all)-1].after
	m["obs.p99_gauge_ratio"] = ratio(float64(last.Gauges["serve.latency.p99_ns"])/1e6, percentile(class(""), 0.99))

	// Cold evals in schedule order across the run: their first and last twenty
	// show how restore cost drifts as the idempotency journals grow.
	if cold := class("cold"); len(cold) > 0 {
		k := min(20, len(cold))
		m["fastd.restore_p50_ms"] = median(cold)
		m["fastd.restore_first_ms"] = median(cold[:k])
		m["fastd.restore_last_ms"] = median(cold[len(cold)-k:])
		m["fastd.restore_overhead_ms"] = m["fastd.restore_p50_ms"] - m["fast.snapshot_restore_ms"] - median(class("warm"))
	}
	if creates := class("create_post"); len(creates) > 0 {
		m["fastd.create_p50_ms"] = median(creates)
		m["fastd.create_overhead_ms"] = m["fastd.create_p50_ms"] - m["fast.newcontext_ms"] - m["fast.snapshot_write_ms"]
	}
}

// inProcessServeLayers measures the admission layer and the shared evk cache
// with nothing behind them: what one request pays for passing through.
func inProcessServeLayers(tr *tracer, reps int, m metricSet) error {
	p := newProber(tr, reps*10, "probe.serve")
	defer p.done()
	srv := serve.New(serve.Config{Workers: 2, QueueDepth: 8})
	bg := context.Background()
	op := serve.Op{Name: "noop", Units: 1}
	var err error
	m["serve.do_overhead_us"] = p.medianNS("serve.do", func() {
		err = srv.Do(bg, op, func(context.Context) error { return nil })
	}) / 1e3
	if err != nil {
		return err
	}
	batcher := serve.NewBatcher(srv, func(items []*serve.BatchItem) {
		for _, it := range items {
			it.Finish(nil, nil)
		}
	}, nil)
	m["serve.batcher_overhead_us"] = p.medianNS("serve.batcher_do", func() {
		_, err = batcher.Do(bg, op, "probe", nil)
	}) / 1e3
	if err != nil {
		return err
	}
	if err := srv.Drain(bg); err != nil {
		return err
	}
	cache := hemera.NewSharedCache(1<<20, nil)
	fill := func() error { return nil }
	m["hemera.getorfill_hit_ns"] = p.medianNS("hemera.getorfill_hit", func() {
		err = cache.GetOrFill("probe/hybrid/relin", 0, 4096, fill)
	})
	return err
}

// httpLayers drives the running daemon over one connection, one request at a
// time (no queueing), and replays the same eval in process on a context with
// identical keys to attribute the request's time to layers.
func httpLayers(tr *tracer, rig *serveRig, fe *fastEnv, cfg fast.ContextConfig, plain []complex128, m metricSet) error {
	reps := rig.env.size.probeReps
	p := newProber(tr, reps, "probe.fastd")
	defer p.done()
	d := *rig.d
	c := newClient(d.base)
	defer c.close()
	m["fastd.ready_ms"] = d.readyMS

	var err error
	status := 0
	m["fastd.http_floor_ms"] = p.medianOf("fastd.healthz", reps*5, true, func() {
		status, _, _, err = c.do(http.MethodGet, "/healthz", nil, "")
	}) / 1e6
	if err != nil || status != http.StatusOK {
		return fmt.Errorf("healthz: status %d err %v", status, err)
	}

	// A probe session with the configuration (and seed, hence keys) of the
	// in-process replica.
	sess, err := c.createSession(sessionSpecFor(cfg))
	if err != nil {
		return err
	}
	path := "/v1/sessions/" + sess.ID
	encBody, err := json.Marshal(map[string]any{"values": toWire(plain)})
	if err != nil {
		return err
	}
	var reply []byte
	post := func(name, sub string, body []byte, key string, n int) (float64, error) {
		var perr error
		ns := p.medianOf(name, n, true, func() {
			st, _, b, e := c.do(http.MethodPost, path+sub, body, key)
			switch {
			case e != nil:
				perr = e
			case st != http.StatusOK:
				perr = fmt.Errorf("%s: status %d: %s", name, st, truncate(b, 160))
			default:
				reply = append(reply[:0], b...)
			}
		})
		return ns / 1e6, perr
	}
	if m["fastd.encrypt_ms"], err = post("fastd.http_encrypt", "/encrypt", encBody, "", reps); err != nil {
		return err
	}
	ctB64, err := replyCiphertext(reply)
	if err != nil {
		return err
	}
	decBody, err := json.Marshal(map[string]string{"ciphertext": ctB64})
	if err != nil {
		return err
	}
	if m["fastd.decrypt_ms"], err = post("fastd.http_decrypt", "/decrypt", decBody, "", reps); err != nil {
		return err
	}
	body, err := evalBody(ctB64, fanoutProgram())
	if err != nil {
		return err
	}
	evalMS, err := post("fastd.http_eval", "/eval", body, "", reps)
	if err != nil {
		return err
	}
	m["fastd.eval_ms"] = evalMS
	evalReply := append([]byte(nil), reply...)

	// Keyed evals: each call needs its own key, so the loop is spelled out.
	journal := filepath.Join(rig.stateDir, sess.ID+".idem")
	size0 := fileSize(journal)
	keyed := make([]float64, 0, reps)
	key := ""
	for i := 0; i < reps; i++ {
		key = fmt.Sprintf("probe-%d-%d", rig.env.seed, i)
		keyed = append(keyed, p.tr.timed("fastd.http_eval_keyed", p.parent, func() {
			status, _, _, err = c.do(http.MethodPost, path+"/eval", body, key)
		})/1e6)
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("keyed eval: status %d err %v", status, err)
		}
	}
	m["fastd.journal_ms"] = median(keyed) - evalMS
	m["fastd.journal_mb_per_kop"] = float64(fileSize(journal)-size0) / float64(reps) * 1000 / (1 << 20)
	var hdr http.Header
	m["fastd.replay_ms"] = p.medianNS("fastd.http_replay", func() {
		status, hdr, _, err = c.do(http.MethodPost, path+"/eval", body, key)
	}) / 1e6
	if err != nil || status != http.StatusOK || hdr.Get("Idempotency-Replayed") != "true" {
		return fmt.Errorf("replay probe: status %d replayed %q err %v", status, hdr.Get("Idempotency-Replayed"), err)
	}

	// The same request, step by step, in process. fe's context was built from
	// the same config and seed as the probe session, so it accepts the
	// session's ciphertext bytes and produces the daemon's reply bytes.
	var wire struct {
		Inputs  map[string]string `json:"inputs"`
		Program json.RawMessage   `json:"program"`
	}
	jsonNS := p.medianNS("fastd.json_decode", func() { err = json.Unmarshal(body, &wire) })
	if err != nil {
		return err
	}
	var in *fast.Ciphertext
	unmarshalNS := p.medianNS("ckks.ct_unmarshal_b64", func() {
		raw, e := base64.StdEncoding.DecodeString(wire.Inputs["x"])
		if err = e; e == nil {
			in, err = fe.ctx.ReadCiphertext(bytes.NewReader(raw))
		}
	})
	if err != nil {
		return err
	}
	fingerprintNS := p.medianNS("fast.plan_fingerprint", func() { fe.ctx.PlanFingerprint(fe.prog, map[string]int{"x": in.Level()}) })
	var out *fast.Ciphertext
	executeNS := p.medianNS("fast.execute", func() {
		out, err = fe.ctx.Execute(context.Background(), fe.plan, map[string]*fast.Ciphertext{"x": in})
	})
	if err != nil {
		return err
	}
	var local []byte
	marshalNS := p.medianNS("ckks.ct_marshal_b64", func() {
		var buf bytes.Buffer
		if err = out.Serialize(&buf); err == nil {
			local, err = json.Marshal(map[string]any{
				"ciphertext": base64.StdEncoding.EncodeToString(buf.Bytes()), "level": out.Level(), "scale": out.Scale(),
			})
		}
	})
	if err != nil {
		return err
	}
	if lc, _ := replyCiphertext(local); lc == "" {
		return fmt.Errorf("in-process replica produced no ciphertext")
	} else if rc, _ := replyCiphertext(evalReply); rc != lc {
		return fmt.Errorf("in-process replica of the eval does not reproduce the daemon's reply bytes")
	}
	inProcMS := (unmarshalNS + fingerprintNS + executeNS + marshalNS) / 1e6
	m["fastd.envelope_ms"] = evalMS - inProcMS
	m["fastd.envelope_share"] = (evalMS - inProcMS) / evalMS
	explained := inProcMS + jsonNS/1e6 + m["fastd.http_floor_ms"] + m["serve.batcher_overhead_us"]/1e3
	m["fastd.unattributed_share"] = (evalMS - explained) / evalMS

	return nil
}

func fileSize(path string) int64 {
	st, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return st.Size()
}

// restartLayers kills the daemon (SIGKILL, no drain), respawns it on the same
// state directory and times the first eval of every persisted session, each
// of which must answer with the bytes it answered before the kill. Then it
// measures shard failover on a fresh two-shard daemon over the same state:
// kill the shard that owns a session, time to that session's next 200.
func restartLayers(tr *tracer, rig *serveRig, m metricSet) error {
	p := newProber(tr, 1, "probe.fastd_restart")
	defer p.done()
	(*rig.d).stop()
	d, err := spawnFastd(rig.env.fastdBin, rig.stateDir, rig.flags...)
	if err != nil {
		return err
	}
	*rig.d = d
	c := newClient(d.base)
	var first []float64
	for _, t := range rig.live {
		if t.want == nil {
			continue
		}
		var status int
		var body []byte
		ms := p.tr.timed("fastd.http_eval_after_restart", p.parent, func() {
			status, _, body, err = c.do(http.MethodPost, "/v1/sessions/"+t.session+"/eval", t.body, "")
		}) / 1e6
		if err != nil {
			return err
		}
		if msg := t.check(c, status, body, 0); msg != "" {
			return fmt.Errorf("after restart: %s", msg)
		}
		first = append(first, ms)
	}
	c.close()
	m["fastd.restart_restore_ms"] = median(first)

	d.stop()
	if d, err = spawnFastd(rig.env.fastdBin, rig.stateDir, "-shards", "2", "-workers", "1"); err != nil {
		return err
	}
	*rig.d = d
	c = newClient(d.base)
	defer c.close()
	cfg := serveConfig(rig.env.size, rig.env.seed+77)
	var t *evalTarget
	for try := 0; try < 8 && t == nil; try++ {
		var si struct {
			sessionInfo
			Shard int `json:"shard"`
		}
		if err := c.postJSON("/v1/sessions", sessionSpecFor(cfg), &si); err != nil {
			return err
		}
		if si.Shard == 0 {
			if t, err = newEvalTarget(c, si.ID, seededVector(rig.env.rng(9), si.Slots)); err != nil {
				return err
			}
		}
	}
	if t == nil {
		return fmt.Errorf("no session landed on shard 0 in 8 creates")
	}
	evalOnce := func() (int, []byte, error) {
		status, _, body, err := c.do(http.MethodPost, "/v1/sessions/"+t.session+"/eval", t.body, "")
		return status, body, err
	}
	status, body, err := evalOnce()
	if err != nil {
		return err
	}
	if msg := t.check(c, status, body, precisionFloor[wlServeHot]); msg != "" {
		return fmt.Errorf("before failover: %s", msg)
	}
	if status, _, _, err = c.do(http.MethodPost, "/debug/shards/0/kill", nil, ""); err != nil || status/100 != 2 {
		return fmt.Errorf("kill shard 0: status %d err %v", status, err)
	}
	span := tr.start("fastd.failover", p.parent, -1)
	t0 := time.Now()
	for {
		if status, body, err = evalOnce(); err != nil {
			return err
		}
		if status == http.StatusOK {
			break
		}
		if time.Since(t0) > 20*time.Second {
			return fmt.Errorf("session %s not served 20s after its shard was killed (last status %d)", t.session, status)
		}
		time.Sleep(time.Millisecond)
	}
	m["fastd.failover_ms"] = float64(time.Since(t0).Nanoseconds()) / 1e6
	tr.end(span)
	if msg := t.check(c, status, body, 0); msg != "" {
		return fmt.Errorf("after failover: %s", msg)
	}
	return nil
}
