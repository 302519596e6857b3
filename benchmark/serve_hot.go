package main

import (
	"bytes"
	"fmt"
	"net/http"
	"os"
	"sync"
	"time"

	fast "github.com/fastfhe/fast"
)

// serveConfig is the session both serving workloads create: DefaultConfig's
// shape at the sizing's ring degree and depth.
func serveConfig(size sizing, seed int64) fast.ContextConfig {
	cfg := fast.DefaultConfig()
	cfg.LogN, cfg.Levels, cfg.Seed = size.serveLogN, size.serveLevels, seed
	return cfg
}

// evalTarget is one (session, input, program) triple a client evaluates: the
// pre-encoded request and the reference reply every later reply must equal
// byte for byte.
type evalTarget struct {
	session string
	plain   []complex128 // the input's plaintext, for the oracle
	ctB64   string       // the encrypted input
	body    []byte       // pre-encoded eval request
	want    []byte       // first eval reply (nil until seen)
	bits    float64      // precision of the first reply against the oracle
}

// newEvalTarget encrypts a seeded input under session id and pre-encodes the
// fan-out eval request for it.
func newEvalTarget(c *client, id string, plain []complex128) (*evalTarget, error) {
	ct, err := c.encrypt(id, plain)
	if err != nil {
		return nil, err
	}
	body, err := evalBody(ct, fanoutProgram())
	if err != nil {
		return nil, err
	}
	return &evalTarget{session: id, plain: plain, ctB64: ct, body: body}, nil
}

// check validates one eval reply for t. The first reply is decrypted through
// the daemon and compared with the plaintext oracle; every later reply must
// be byte-identical to it. It returns "" when the reply is correct.
func (t *evalTarget) check(c *client, status int, body []byte, floor float64) string {
	if status != http.StatusOK {
		return fmt.Sprintf("session %s: status %d: %s", t.session, status, truncate(body, 160))
	}
	if t.want != nil {
		if !bytes.Equal(body, t.want) {
			return fmt.Sprintf("session %s: reply differs from the first reply for the same input", t.session)
		}
		return ""
	}
	first := append([]byte(nil), body...) // body aliases the client's scratch
	ct, err := replyCiphertext(first)
	if err != nil {
		return err.Error()
	}
	got, err := c.decrypt(t.session, ct)
	if err != nil {
		return err.Error()
	}
	wantVals, err := evalPlain(fanoutProgram(), map[string][]complex128{"x": t.plain})
	if err != nil {
		return err.Error()
	}
	var worst float64
	t.bits, worst = precisionBits(got, wantVals)
	if worst < floor {
		return fmt.Sprintf("session %s: %.1f correct bits in the worst slot, floor is %.0f", t.session, worst, floor)
	}
	t.want = first
	return ""
}

// serveHot: one spawned fastd, one session, min(nproc,2) clients each holding
// one ciphertext and posting un-keyed evals of the fan-out program, plan
// cache hot. Thin compute under a fat envelope.
type serveHot struct {
	env      *runEnv
	d        *daemon
	stateDir string
	clients  []*client
	targets  []*evalTarget
}

func (s *serveHot) sutPID() int { return s.d.pid() }

func (s *serveHot) precision() float64 {
	bits := s.targets[0].bits
	for _, t := range s.targets[1:] {
		if t.bits < bits {
			bits = t.bits
		}
	}
	return bits
}

func (s *serveHot) daemonFlags() []string {
	return []string{"-shards", "1", "-workers", "2"}
}

func (s *serveHot) setUp() error {
	dir, err := s.env.scratchDir("hot-state-")
	if err != nil {
		return err
	}
	s.stateDir = dir
	if s.d, err = spawnFastd(s.env.fastdBin, dir, s.daemonFlags()...); err != nil {
		return err
	}
	rng := s.env.rng(1)
	admin := newClient(s.d.base)
	defer admin.close()
	sess, err := admin.createSession(sessionSpecFor(serveConfig(s.env.size, 1+rng.Int63n(1<<30))))
	if err != nil {
		return err
	}
	floor := precisionFloor[wlServeHot]
	for i := 0; i < s.env.clients; i++ {
		c := newClient(s.d.base)
		t, err := newEvalTarget(c, sess.ID, seededVector(rng, sess.Slots))
		if err != nil {
			return err
		}
		s.clients, s.targets = append(s.clients, c), append(s.targets, t)
		// Warm-up: the first eval plans and fills the plan cache and the
		// lazy Galois tables; the rest settle the connection and the pools.
		for k := 0; k <= s.env.size.warmOps; k++ {
			status, _, body, err := c.do(http.MethodPost, "/v1/sessions/"+sess.ID+"/eval", t.body, "")
			if err != nil {
				return err
			}
			if msg := t.check(c, status, body, floor); msg != "" {
				return fmt.Errorf("serve_hot warm-up: %s", msg)
			}
		}
	}
	return nil
}

func (s *serveHot) run(d time.Duration, tr *tracer) (*window, error) {
	admin := newClient(s.d.base)
	defer admin.close()
	total := newWindow()
	var err error
	if total.before, err = admin.scrape(); err != nil {
		return nil, err
	}
	cpu0, err := procCPUSeconds(s.d.pid())
	if err != nil {
		return nil, err
	}
	self0 := selfCPUSeconds()
	start := time.Now()
	deadline := start.Add(d)
	parts := make([]*window, len(s.clients))
	var wg sync.WaitGroup
	for i := range s.clients {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			parts[i] = s.clientLoop(i, deadline, tr)
		}(i)
	}
	wg.Wait()
	total.elapsed = time.Since(start)
	total.harnessCPU = selfCPUSeconds() - self0
	cpu1, err := procCPUSeconds(s.d.pid())
	if err != nil {
		return nil, err
	}
	total.sutCPU = cpu1 - cpu0
	if total.after, err = admin.scrape(); err != nil {
		return nil, err
	}
	for _, p := range parts {
		total.merge(p)
	}
	total.counts["disk_mb"] = dirSizeMB(s.stateDir)
	return total, nil
}

// clientLoop is one closed-loop client: send, wait for the reply, check it,
// send again, until the deadline (or the op cap of a smoke run).
func (s *serveHot) clientLoop(i int, deadline time.Time, tr *tracer) *window {
	c, t, w := s.clients[i], s.targets[i], newWindow()
	path := "/v1/sessions/" + t.session + "/eval"
	floor := precisionFloor[wlServeHot]
	for n := 0; time.Now().Before(deadline) && (s.env.maxOps == 0 || n < s.env.maxOps); n++ {
		opID := i*1_000_000 + n
		root := tr.start("op.eval", -1, opID)
		hs := tr.start("fastd.http_eval", root, opID)
		t0 := time.Now()
		status, _, body, err := c.do(http.MethodPost, path, t.body, "")
		ms := float64(time.Since(t0).Nanoseconds()) / 1e6
		tr.end(hs)
		vs := tr.start("bench.verify", root, opID)
		msg := ""
		if err != nil {
			msg = err.Error()
		} else {
			msg = t.check(c, status, body, floor)
		}
		tr.end(vs)
		tr.end(root)
		if msg != "" {
			w.fail("%s", msg)
			continue
		}
		w.record("eval", ms)
		w.counts["wire_bytes"] += float64(len(t.body) + len(body))
		w.counts["evals"]++
	}
	return w
}

func (s *serveHot) tearDown() {
	for _, c := range s.clients {
		c.close()
	}
	s.clients, s.targets = nil, nil
	s.d.stop()
	s.d = nil
	_ = os.RemoveAll(s.stateDir)
}
