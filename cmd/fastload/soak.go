package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	fast "github.com/fastfhe/fast"
)

type soakConfig struct {
	Addr     string // soak an existing daemon ...
	Spawn    string // ... or own the process (required for Kills > 0)
	StateDir string
	Sessions int
	RPS      float64
	Duration time.Duration
	Workers  int
	ZipfS    float64
	Kills    int
	// Shards configures the spawned daemon's -shards; ShardKills fences that
	// many shards mid-soak through the in-process chaos endpoint (must leave
	// at least one survivor). Unlike -kills, the PROCESS stays up — this
	// exercises failover (fence, remap, snapshot restore on survivors), not
	// restart recovery.
	Shards     int
	ShardKills int
	SLOP99     time.Duration
	Seed       int64
}

// soakReport is the harness verdict: the tally of everything observed plus
// the pass/fail assertions. Pass is true iff zero bit mismatches, zero
// idempotency violations, zero unexpected statuses, zero corrupt snapshots
// and the success p99 within SLO.
type soakReport struct {
	Requests           int64            `json:"requests"`
	Success            int64            `json:"success"`
	Retries            int64            `json:"retries"`
	TransportErrors    int64            `json:"transport_errors"`
	Statuses           map[string]int64 `json:"statuses"`
	Restarts           int              `json:"restarts"`
	ShardKills         int              `json:"shard_kills"`
	EvkCrossShardHits  uint64           `json:"evk_cross_shard_hits"`
	EvkResidentBytes   int64            `json:"evk_resident_bytes"`
	EvkBudgetBytes     int64            `json:"evk_budget_bytes"`
	IdempotentReplays  int64            `json:"idempotent_replays"`
	BitMismatches      int64            `json:"bit_mismatches"`
	IdemViolations     int64            `json:"idempotency_violations"`
	UnexpectedStatuses int64            `json:"unexpected_statuses"`
	CorruptSnapshots   uint64           `json:"corrupt_snapshots"`
	P50Ms              float64          `json:"p50_ms"`
	P99Ms              float64          `json:"p99_ms"`
	SLOP99Ms           float64          `json:"slo_p99_ms"`
	Pass               bool             `json:"pass"`
	Failures           []string         `json:"failures,omitempty"`
}

// ---- Daemon process management ----------------------------------------------

// daemonProc owns a spawned fastd: first start binds :0 and parses the
// concrete address from the banner line; SIGKILL+restart cycles rebind the
// same address so clients only see a connection-error window.
type daemonProc struct {
	path     string
	addr     string
	baseArgs []string
	cmd      *exec.Cmd
}

var addrRe = regexp.MustCompile(`http://([^\s]+)`)

func (p *daemonProc) start() error {
	cmd := exec.Command(p.path, append([]string{"-addr", p.addr}, p.baseArgs...)...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	cmd.Stderr = io.Discard
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("fastload: spawn %s: %w", p.path, err)
	}
	sc := bufio.NewScanner(stdout)
	banner := make(chan string, 1)
	go func() {
		for sc.Scan() {
			if m := addrRe.FindStringSubmatch(sc.Text()); m != nil {
				banner <- m[1]
				break
			}
		}
		// Keep draining so the daemon never blocks on a full pipe.
		for sc.Scan() {
		}
		close(banner)
	}()
	select {
	case a, ok := <-banner:
		if !ok || a == "" {
			_ = cmd.Process.Kill()
			_, _ = cmd.Process.Wait()
			return fmt.Errorf("fastload: fastd exited before announcing its address")
		}
		p.addr = a
	case <-time.After(30 * time.Second):
		_ = cmd.Process.Kill()
		_, _ = cmd.Process.Wait()
		return fmt.Errorf("fastload: fastd did not announce its address within 30s")
	}
	p.cmd = cmd
	return nil
}

// sigkill is the chaos primitive: immediate SIGKILL, no drain, no warning —
// the crash the write-ahead durability design must absorb.
func (p *daemonProc) sigkill() {
	if p.cmd != nil && p.cmd.Process != nil {
		_ = p.cmd.Process.Kill()
		_, _ = p.cmd.Process.Wait()
		p.cmd = nil
	}
}

// ---- Retrying client --------------------------------------------------------

// collector accumulates the soak tally across workers.
type collector struct {
	requests        atomic.Int64
	success         atomic.Int64
	retries         atomic.Int64
	transportErrors atomic.Int64
	replays         atomic.Int64
	bitMismatch     atomic.Int64
	idemViolations  atomic.Int64
	unexpected      atomic.Int64

	mu       sync.Mutex
	statuses map[int]int64
	lats     []time.Duration
	failures []string
}

func (c *collector) status(code int) {
	c.mu.Lock()
	c.statuses[code]++
	c.mu.Unlock()
}

func (c *collector) latency(d time.Duration) {
	c.mu.Lock()
	c.lats = append(c.lats, d)
	c.mu.Unlock()
}

func (c *collector) fail(format string, args ...any) {
	c.mu.Lock()
	if len(c.failures) < 32 { // cap the list; the counters carry the totals
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
	c.mu.Unlock()
}

// client retries through fastd's typed degradation ladder with jittered
// exponential backoff:
//
//	429/503        always retried (back-pressure: the daemon asked us to)
//	504/408        retried only for idempotent requests (keyed or read-only)
//	transport errs retried for idempotent requests (the restart window)
//	everything else terminal — returned to the caller to classify
type client struct {
	base string
	hc   *http.Client
	col  *collector
	rng  *rand.Rand
	mu   sync.Mutex // guards rng (workers share one backoff source)
}

func (c *client) backoff(attempt int) time.Duration {
	if attempt > 6 {
		attempt = 6 // 25ms << 6 already exceeds the 1s cap
	}
	d := 25 * time.Millisecond << uint(attempt)
	if d > time.Second {
		d = time.Second
	}
	c.mu.Lock()
	j := time.Duration(c.rng.Int63n(int64(d)/2 + 1))
	c.mu.Unlock()
	return d/2 + j
}

const maxAttempts = 25

// do issues method path with the given body, retrying per the ladder.
// Returns the terminal status, body and header; err only when every attempt
// failed at the transport layer or the budget ran out on retryable statuses.
func (c *client) do(method, path string, hdr map[string]string, body []byte, idempotent bool) (int, []byte, http.Header, error) {
	c.col.requests.Add(1)
	var lastErr error
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if attempt > 0 {
			c.col.retries.Add(1)
			time.Sleep(c.backoff(attempt - 1))
		}
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequest(method, c.base+path, rd)
		if err != nil {
			return 0, nil, nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		for k, v := range hdr {
			req.Header.Set(k, v)
		}
		start := time.Now()
		resp, err := c.hc.Do(req)
		if err != nil {
			c.col.transportErrors.Add(1)
			lastErr = err
			if !idempotent {
				return 0, nil, nil, err
			}
			continue
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			c.col.transportErrors.Add(1)
			lastErr = err
			if !idempotent {
				return 0, nil, nil, err
			}
			continue
		}
		c.col.status(resp.StatusCode)
		switch resp.StatusCode {
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			lastErr = fmt.Errorf("%s %s: status %d", method, path, resp.StatusCode)
			continue
		case http.StatusGatewayTimeout, http.StatusRequestTimeout:
			lastErr = fmt.Errorf("%s %s: status %d", method, path, resp.StatusCode)
			if !idempotent {
				return resp.StatusCode, raw, resp.Header, nil
			}
			continue
		}
		if resp.StatusCode == http.StatusOK {
			c.col.success.Add(1)
			c.col.latency(time.Since(start))
		}
		return resp.StatusCode, raw, resp.Header, nil
	}
	return 0, nil, nil, fmt.Errorf("fastload: retry budget exhausted: %w", lastErr)
}

func (c *client) postJSON(path string, hdr map[string]string, v any, idempotent bool) (int, []byte, http.Header, error) {
	raw, err := json.Marshal(v)
	if err != nil {
		return 0, nil, nil, err
	}
	return c.do(http.MethodPost, path, hdr, raw, idempotent)
}

// waitReady polls /readyz until the daemon answers 200 (post-restart gate).
func (c *client) waitReady(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		resp, err := c.hc.Get(c.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("fastload: daemon not ready within %s", timeout)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// ---- The soak ---------------------------------------------------------------

// soakSession is one keyspace under load: its reference ciphertext and the
// fault-free decrypt bytes every later decrypt is compared against.
type soakSession struct {
	id         string
	ciphertext string
	refDecrypt []byte
}

// wire mirrors of fastd's request/response shapes (kept local: fastload
// exercises the daemon strictly over its public HTTP surface).
type cnum struct {
	Re float64 `json:"re"`
	Im float64 `json:"im"`
}
type wireSessionReq struct {
	LogN      int   `json:"log_n"`
	Levels    int   `json:"levels"`
	LogScale  int   `json:"log_scale"`
	Rotations []int `json:"rotations"`
	Seed      int64 `json:"seed"`
}
type wireSessionResp struct {
	ID    string `json:"id"`
	Slots int    `json:"slots"`
}
type wireEncryptReq struct {
	Values []cnum `json:"values"`
}
type wireCiphertext struct {
	Ciphertext string `json:"ciphertext"`
}
type wireEvalReq struct {
	Inputs  map[string]string `json:"inputs"`
	Program *fast.Program     `json:"program"`
}

// wireReadyz mirrors the slice of /readyz the shard-chaos controller reads.
type wireReadyz struct {
	Ready      bool `json:"ready"`
	LiveShards int  `json:"live_shards"`
	Shards     []struct {
		Shard    int  `json:"shard"`
		Fenced   bool `json:"fenced"`
		Resident int  `json:"resident"`
	} `json:"shards"`
	Sessions struct {
		Corrupt uint64 `json:"corrupt"`
	} `json:"sessions"`
	Evk struct {
		CrossShardHits uint64 `json:"cross_shard_hits"`
		ResidentBytes  int64  `json:"resident_bytes"`
		BudgetBytes    int64  `json:"budget_bytes"`
	} `json:"evk"`
}

// readyz fetches and decodes /readyz (any status).
func (c *client) readyz() (int, wireReadyz, error) {
	var rz wireReadyz
	resp, err := c.hc.Get(c.base + "/readyz")
	if err != nil {
		return 0, rz, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return resp.StatusCode, rz, err
	}
	if err := json.Unmarshal(raw, &rz); err != nil {
		return resp.StatusCode, rz, err
	}
	return resp.StatusCode, rz, nil
}

func soak(cfg soakConfig, logw io.Writer) (*soakReport, error) {
	if cfg.Sessions <= 0 {
		cfg.Sessions = 1
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.RPS <= 0 {
		cfg.RPS = 1
	}
	if cfg.ZipfS <= 1 {
		cfg.ZipfS = 1.2
	}
	if cfg.SLOP99 <= 0 {
		cfg.SLOP99 = 5 * time.Second
	}
	if (cfg.Addr == "") == (cfg.Spawn == "") {
		return nil, fmt.Errorf("fastload: exactly one of -addr and -spawn is required")
	}
	if cfg.Kills > 0 && cfg.Spawn == "" {
		return nil, fmt.Errorf("fastload: chaos mode (-kills) requires -spawn")
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	if cfg.ShardKills > 0 {
		if cfg.Spawn == "" {
			return nil, fmt.Errorf("fastload: shard-chaos mode (-shard-kills) requires -spawn")
		}
		if cfg.ShardKills >= cfg.Shards {
			return nil, fmt.Errorf("fastload: -shard-kills %d must leave a survivor among %d shards", cfg.ShardKills, cfg.Shards)
		}
	}

	col := &collector{statuses: map[int]int64{}}
	var proc *daemonProc
	base := cfg.Addr
	if cfg.Spawn != "" {
		stateDir := cfg.StateDir
		if stateDir == "" {
			var err error
			if stateDir, err = os.MkdirTemp("", "fastload-state-*"); err != nil {
				return nil, err
			}
			defer os.RemoveAll(stateDir)
		}
		proc = &daemonProc{
			path: cfg.Spawn,
			addr: "127.0.0.1:0",
			baseArgs: []string{
				"-state-dir", stateDir,
				"-access-log", "none",
				"-workers", "2",
				"-queue", "64",
				"-shards", fmt.Sprint(cfg.Shards),
				// Headroom above the soak's session count so /readyz's
				// full-registry flip never blocks the post-restart gate.
				"-max-sessions", fmt.Sprint(cfg.Sessions*2 + 4),
			},
		}
		if err := proc.start(); err != nil {
			return nil, err
		}
		defer proc.sigkill()
		base = "http://" + proc.addr
	}

	cl := &client{
		base: base,
		hc:   &http.Client{Timeout: 30 * time.Second},
		col:  col,
		rng:  rand.New(rand.NewSource(cfg.Seed)),
	}
	if err := cl.waitReady(30 * time.Second); err != nil {
		return nil, err
	}

	// Phase 1: fault-free reference. Create every session, encrypt one known
	// vector per session, and capture the exact decrypt response bytes —
	// the oracle every post-kill decrypt must match bit-for-bit.
	sessions := make([]*soakSession, cfg.Sessions)
	for i := range sessions {
		var sr wireSessionResp
		status, raw, _, err := cl.postJSON("/v1/sessions", nil, wireSessionReq{
			LogN: 9, Levels: 2, LogScale: 36, Rotations: []int{1}, Seed: cfg.Seed + int64(i),
		}, true)
		if err != nil || status != http.StatusOK {
			return nil, fmt.Errorf("fastload: create session %d: status %d err %v (%s)", i, status, err, raw)
		}
		if err := json.Unmarshal(raw, &sr); err != nil {
			return nil, err
		}
		vals := make([]cnum, sr.Slots)
		for j := range vals {
			vals[j] = cnum{Re: 0.25 * float64((i+j)%7), Im: -0.125 * float64(j%5)}
		}
		var ct wireCiphertext
		status, raw, _, err = cl.postJSON("/v1/sessions/"+sr.ID+"/encrypt", nil, wireEncryptReq{Values: vals}, true)
		if err != nil || status != http.StatusOK {
			return nil, fmt.Errorf("fastload: encrypt session %s: status %d err %v", sr.ID, status, err)
		}
		if err := json.Unmarshal(raw, &ct); err != nil {
			return nil, err
		}
		status, ref, _, err := cl.postJSON("/v1/sessions/"+sr.ID+"/decrypt", nil, ct, true)
		if err != nil || status != http.StatusOK {
			return nil, fmt.Errorf("fastload: reference decrypt %s: status %d err %v", sr.ID, status, err)
		}
		sessions[i] = &soakSession{id: sr.ID, ciphertext: ct.Ciphertext, refDecrypt: ref}
	}
	fmt.Fprintf(logw, "fastload: %d sessions ready, soaking %s at %.0f rps (%d workers, %d kills)\n",
		cfg.Sessions, cfg.Duration, cfg.RPS, cfg.Workers, cfg.Kills)

	// Phase 2: paced Zipf workload + chaos controller.
	ctx, cancel := context.WithTimeout(context.Background(), cfg.Duration)
	defer cancel()
	tokens := make(chan struct{}, cfg.Workers)
	go func() {
		interval := time.Duration(float64(time.Second) / cfg.RPS)
		if interval <= 0 {
			interval = time.Millisecond
		}
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				close(tokens)
				return
			case <-tick.C:
				select {
				case tokens <- struct{}{}:
				default: // workers saturated; shed the token, not the test
				}
			}
		}
	}()

	restarts := 0
	shardKills := 0
	var chaosWG sync.WaitGroup
	if cfg.ShardKills > 0 {
		chaosWG.Add(1)
		go func() {
			defer chaosWG.Done()
			interval := cfg.Duration / time.Duration(cfg.ShardKills+1)
			for k := 0; k < cfg.ShardKills; k++ {
				select {
				case <-ctx.Done():
					return
				case <-time.After(interval):
				}
				// Prefer fencing a shard that still holds sessions, so the
				// kill forces actual failover work on the survivors.
				_, rz, err := cl.readyz()
				if err != nil {
					col.fail("shard kill %d: readyz: %v", k+1, err)
					return
				}
				victim := -1
				for _, s := range rz.Shards {
					if s.Fenced {
						continue
					}
					if victim < 0 {
						victim = s.Shard
					}
					if s.Resident > 0 {
						victim = s.Shard
						break
					}
				}
				if victim < 0 || rz.LiveShards <= 1 {
					col.fail("shard kill %d: no killable shard (live=%d)", k+1, rz.LiveShards)
					return
				}
				fmt.Fprintf(logw, "fastload: shard chaos kill %d/%d -> shard %d\n", k+1, cfg.ShardKills, victim)
				status, _, _, err := cl.do(http.MethodPost, fmt.Sprintf("/debug/shards/%d/kill", victim), nil, nil, true)
				if err != nil || status != http.StatusOK {
					col.fail("shard kill %d: status %d err %v", k+1, status, err)
					return
				}
				// Killing one of N>1 shards must NOT cost readiness: the
				// fenced shard's sessions fail over, capacity degrades,
				// availability does not.
				status, rz, err = cl.readyz()
				if err != nil || status != http.StatusOK || !rz.Ready {
					col.fail("shard kill %d: daemon lost readiness (status %d ready %v err %v)", k+1, status, rz.Ready, err)
					return
				}
				if !rz.Shards[victim].Fenced {
					col.fail("shard kill %d: shard %d not reported fenced on /readyz", k+1, victim)
					return
				}
				shardKills++
			}
		}()
	}
	if cfg.Kills > 0 {
		chaosWG.Add(1)
		go func() {
			defer chaosWG.Done()
			interval := cfg.Duration / time.Duration(cfg.Kills+1)
			for k := 0; k < cfg.Kills; k++ {
				select {
				case <-ctx.Done():
					return
				case <-time.After(interval):
				}
				fmt.Fprintf(logw, "fastload: chaos kill %d/%d\n", k+1, cfg.Kills)
				proc.sigkill()
				if err := proc.start(); err != nil {
					col.fail("restart %d: %v", k+1, err)
					cancel()
					return
				}
				if err := cl.waitReady(60 * time.Second); err != nil {
					col.fail("restart %d: %v", k+1, err)
					cancel()
					return
				}
				restarts++
			}
		}()
	}

	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + 1000 + int64(w)))
			var zipf *rand.Zipf
			if cfg.Sessions > 1 {
				zipf = rand.NewZipf(rng, cfg.ZipfS, 1, uint64(cfg.Sessions-1))
			}
			seq := 0
			for range tokens {
				idx := uint64(0)
				if zipf != nil {
					idx = zipf.Uint64()
				}
				s := sessions[idx]
				seq++
				if rng.Intn(10) < 7 {
					soakDecryptCheck(cl, col, s)
				} else {
					soakIdemEval(cl, col, s, fmt.Sprintf("w%d-%d", w, seq), cfg.Shards > 1)
				}
			}
		}(w)
	}
	wg.Wait()
	chaosWG.Wait()

	// Phase 3: verdict.
	rep := &soakReport{
		Requests:           col.requests.Load(),
		Success:            col.success.Load(),
		Retries:            col.retries.Load(),
		TransportErrors:    col.transportErrors.Load(),
		Statuses:           map[string]int64{},
		Restarts:           restarts,
		ShardKills:         shardKills,
		IdempotentReplays:  col.replays.Load(),
		BitMismatches:      col.bitMismatch.Load(),
		IdemViolations:     col.idemViolations.Load(),
		UnexpectedStatuses: col.unexpected.Load(),
		SLOP99Ms:           float64(cfg.SLOP99.Milliseconds()),
		Failures:           col.failures,
	}
	for code, n := range col.statuses {
		rep.Statuses[fmt.Sprint(code)] = n
	}
	col.mu.Lock()
	lats := append([]time.Duration(nil), col.lats...)
	col.mu.Unlock()
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	if len(lats) > 0 {
		rep.P50Ms = float64(lats[len(lats)/2]) / float64(time.Millisecond)
		rep.P99Ms = float64(lats[len(lats)*99/100]) / float64(time.Millisecond)
	}
	if proc != nil {
		// Post-soak integrity sweep: the daemon must still be ready, must not
		// have tombstoned any snapshot as corrupt during clean chaos, and the
		// shared evk tier must be within budget.
		if _, rz, err := cl.readyz(); err == nil {
			rep.CorruptSnapshots = rz.Sessions.Corrupt
			rep.EvkCrossShardHits = rz.Evk.CrossShardHits
			rep.EvkResidentBytes = rz.Evk.ResidentBytes
			rep.EvkBudgetBytes = rz.Evk.BudgetBytes
		}
	}

	rep.Pass = true
	check := func(bad bool, format string, args ...any) {
		if bad {
			rep.Pass = false
			rep.Failures = append(rep.Failures, fmt.Sprintf(format, args...))
		}
	}
	check(rep.BitMismatches > 0, "%d decrypts differed from the fault-free reference", rep.BitMismatches)
	check(rep.IdemViolations > 0, "%d idempotency violations", rep.IdemViolations)
	check(rep.UnexpectedStatuses > 0, "%d responses outside the typed error ladder", rep.UnexpectedStatuses)
	check(rep.CorruptSnapshots > 0, "%d snapshots tombstoned as corrupt", rep.CorruptSnapshots)
	check(len(col.failures) > 0, "harness failures: %d", len(col.failures))
	check(rep.Success == 0, "no request succeeded")
	check(rep.P99Ms > rep.SLOP99Ms, "success p99 %.1fms exceeds SLO %.0fms", rep.P99Ms, rep.SLOP99Ms)
	check(cfg.Kills > 0 && restarts < cfg.Kills, "only %d/%d kill cycles completed", restarts, cfg.Kills)
	check(cfg.ShardKills > 0 && shardKills < cfg.ShardKills, "only %d/%d shard kills completed", shardKills, cfg.ShardKills)
	check(cfg.ShardKills > 0 && rep.EvkCrossShardHits == 0,
		"no cross-shard evk hits after failover: survivors did not reuse the dead shard's keys")
	check(rep.EvkBudgetBytes > 0 && rep.EvkResidentBytes > rep.EvkBudgetBytes,
		"evk tier resident %d bytes exceeds budget %d", rep.EvkResidentBytes, rep.EvkBudgetBytes)
	return rep, nil
}

// soakDecryptCheck decrypts the session's reference ciphertext and compares
// the response byte-for-byte against the fault-free oracle — across kills,
// restores and evictions, any 200 must be bit-identical.
func soakDecryptCheck(cl *client, col *collector, s *soakSession) {
	status, raw, _, err := cl.postJSON("/v1/sessions/"+s.id+"/decrypt", nil, wireCiphertext{Ciphertext: s.ciphertext}, true)
	if err != nil {
		return // transport budget exhausted; already counted
	}
	switch {
	case status == http.StatusOK:
		if !bytes.Equal(raw, s.refDecrypt) {
			col.bitMismatch.Add(1)
			col.fail("session %s: decrypt diverged from reference", s.id)
		}
	case ladderStatus(status):
		// typed degradation — fine under chaos
	default:
		col.unexpected.Add(1)
		col.fail("session %s: decrypt status %d outside the ladder: %s", s.id, status, raw)
	}
}

// soakIdemEval runs one idempotent eval then immediately retries the same
// key: the duplicate must return the first reply's bytes (exactly-once),
// whether its record is in memory or — across a kill — in the ring. In shard mode the
// program carries a rotation: addconst alone never key-switches, and it is
// exactly the evaluation-key traffic that exercises the shared evk tier
// (cross-shard hits after failover are one of the chaos assertions).
func soakIdemEval(cl *client, col *collector, s *soakSession, key string, rotate bool) {
	prog := fast.NewProgram().In("x").AddConst("y", "x", 0.5).Return("y")
	if rotate {
		prog = fast.NewProgram().In("x").
			Rotate("t", "x", 1, fast.WithMethod(fast.Hybrid)).
			AddConst("y", "t", 0.5).Return("y")
	}
	req := wireEvalReq{Inputs: map[string]string{"x": s.ciphertext}, Program: prog}
	hdr := map[string]string{"Idempotency-Key": key}
	status, body1, _, err := cl.postJSON("/v1/sessions/"+s.id+"/eval", hdr, req, true)
	if err != nil {
		return
	}
	if status != http.StatusOK {
		if !ladderStatus(status) {
			col.unexpected.Add(1)
			col.fail("session %s: eval status %d outside the ladder: %s", s.id, status, body1)
		}
		return
	}
	status2, body2, hdr2, err := cl.postJSON("/v1/sessions/"+s.id+"/eval", hdr, req, true)
	if err != nil || status2 != http.StatusOK {
		return
	}
	if hdr2.Get("Idempotency-Replayed") == "true" {
		col.replays.Add(1)
	}
	if !bytes.Equal(body1, body2) {
		col.idemViolations.Add(1)
		col.fail("session %s key %s: duplicate eval returned different bytes", s.id, key)
	}
}

// ladderStatus reports whether a non-200 status is a rung of fastd's typed
// degradation ladder — the only failures chaos is allowed to surface.
func ladderStatus(status int) bool {
	switch status {
	case http.StatusTooManyRequests, http.StatusServiceUnavailable,
		http.StatusGatewayTimeout, http.StatusRequestTimeout,
		http.StatusInternalServerError:
		return true
	}
	return false
}
