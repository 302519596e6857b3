package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	fast "github.com/fastfhe/fast"
	"github.com/fastfhe/fast/internal/costmodel"
	"github.com/fastfhe/fast/internal/fault"
	"github.com/fastfhe/fast/internal/obs"
	"github.com/fastfhe/fast/internal/serve"
	sessreg "github.com/fastfhe/fast/internal/session"
	shardpkg "github.com/fastfhe/fast/internal/shard"
)

// daemonConfig sizes the serving layer.
type daemonConfig struct {
	// Shards is the number of failure-isolated serving lanes behind the one
	// listener (default 1 — the pre-sharding topology). Each shard owns its
	// own admission queue, worker pool and slice of MaxResident; sessions are
	// pinned to shards by consistent hashing of the ID.
	Shards int
	// Workers is the evaluator pool size PER SHARD.
	Workers    int
	QueueDepth int
	// MaxSessions bounds the session keyspace count PROCESS-WIDE (each
	// session owns a full key set — memory, not descriptors, is the scarce
	// resource). The bound is enforced by the one session registry, so N
	// shards cannot collectively overshoot it. With a state dir the bound
	// covers resident AND persisted sessions.
	MaxSessions int
	// StateDir enables crash-safe session durability: every session is
	// write-ahead snapshotted there on create (atomic rename, fsync'd),
	// restored lazily after a restart, and evicted to disk under resident
	// pressure. Empty disables persistence (sessions die with the process).
	// The snapshot store is shared by all shards — it is also the failover
	// channel: a fenced shard's sessions restore on the survivors from here.
	StateDir string
	// MaxResident bounds the sessions held in memory when StateDir is set
	// (0 = MaxSessions), split evenly across shards. Past a shard's slice the
	// least-recently-used session is snapshotted (if dirty) and released; the
	// next request faults it back in.
	MaxResident int
	// SessionTTL evicts sessions idle longer than this to disk (0 disables;
	// requires StateDir).
	SessionTTL time.Duration
	// IdemCap bounds each session's idempotency dedup table (0 = 512).
	IdemCap int
	// EvkBudget bounds the process-wide shared evaluation-key tier in bytes
	// (0 = 256 MiB; negative disables retention but keeps accounting).
	EvkBudget int64
	// ProbeInterval / ProbeTimeout / FenceThreshold drive the shard
	// supervisor: every ProbeInterval each live shard must execute a no-op
	// task within ProbeTimeout; FenceThreshold consecutive failures fence the
	// shard (its sessions fail over to the survivors). Probing only runs with
	// Shards >= 2 — with one shard there is nowhere to fail over to.
	ProbeInterval  time.Duration
	ProbeTimeout   time.Duration
	FenceThreshold int
	// StoreFaults optionally injects disk-write failures into the persistence
	// layer (chaos testing of the retry-then-degrade path).
	StoreFaults fault.Plan
	Observer    *fast.Observer
	// Logger receives the JSON access log (one record per request) plus
	// slow-request warnings. Nil discards all logging.
	Logger *slog.Logger
	// SlowRequest is the duration above which a completed request additionally
	// emits a warn-level "slow request" record (0 disables).
	SlowRequest time.Duration
}

func (c daemonConfig) withDefaults() daemonConfig {
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.Workers
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 16
	}
	if c.MaxResident <= 0 || c.MaxResident > c.MaxSessions {
		c.MaxResident = c.MaxSessions
	}
	if c.IdemCap <= 0 {
		c.IdemCap = idemTableCap
	}
	if c.EvkBudget == 0 {
		c.EvkBudget = 256 << 20
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = time.Second
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = c.ProbeInterval
	}
	if c.FenceThreshold <= 0 {
		c.FenceThreshold = 5
	}
	if c.Observer == nil {
		c.Observer = fast.NewObserver()
	}
	if c.Logger == nil {
		c.Logger = obs.NewLogger(io.Discard, slog.LevelInfo)
	}
	return c
}

// session is one client keyspace: a fast.Context plus the bookkeeping the
// admission layer needs (cost parameters) and the
// durability layer adds (snapshot metadata, idempotency table). Where it lives
// — which shard, how recently used, whether the disk describes it — is the
// registry's to know, not the session's.
type session struct {
	id    string
	ctx   *fast.Context
	cm    costmodel.Params
	plans *planCache // compiled-plan LRU keyed by Plan fingerprint
	meta  fast.SessionMeta
	idem  *idemTable
	// journal is the on-disk twin of idem (nil without a state dir): the
	// store's writer state for <id>.idem — append offset and frame count.
	journal *journal
}

// daemon is the fastd HTTP server: N failure-isolated shards behind one
// listener, routed by a consistent-hash ring over session IDs, plus the
// global pieces — the session registry (which also holds the process-wide
// session budget), the snapshot store, the shared evk tier and the supervisor
// that fences failed shards.
type daemon struct {
	cfg      daemonConfig
	shards   []*evalShard
	ring     *shardpkg.Ring
	sup      *shardpkg.Supervisor
	evk      *fast.EvkCache
	observer *fast.Observer
	requests *obs.RequestTable
	logger   *slog.Logger

	store *sessionStore // nil when persistence is disabled

	// sessions is the one place session placement lives (internal/session:
	// the lifecycle's state table, one mutex). Handlers hold it for a map
	// operation at a time and do all I/O, keygen and key expansion between
	// calls.
	sessions *sessreg.Registry[*session]
	nextID   atomic.Uint64
	draining atomic.Bool

	sweepStop chan struct{}
	sweepDone chan struct{}
	stopOnce  sync.Once

	mRequests      *obs.Counter
	mSessionCount  *obs.Gauge
	mPlanEvicted   *obs.Counter
	mPlanHits      *obs.Counter
	mPlanMisses    *obs.Counter
	mResident      *obs.Gauge
	mPersisted     *obs.Gauge
	mRestored      *obs.Counter
	mEvicted       *obs.Counter
	mCorrupt       *obs.Counter
	mIdemReplays   *obs.Counter
	mIdemRecorded  *obs.Counter
	mShardMigrated *obs.Counter
	mShardLost     *obs.Counter
	mShardDown     *obs.Counter
}

func newDaemon(cfg daemonConfig) (*daemon, error) {
	cfg = cfg.withDefaults()
	reg := cfg.Observer.Registry()
	d := &daemon{
		cfg:      cfg,
		observer: cfg.Observer,
		requests: obs.NewRequestTable(reg),
		logger:   cfg.Logger,
		sessions: sessreg.New[*session](cfg.MaxSessions, splitResident(cfg.MaxResident, cfg.Shards)),
		ring:     shardpkg.NewRing(cfg.Shards, 0),
		evk:      fast.NewEvkCache(cfg.EvkBudget, cfg.Observer),
	}
	if reg != nil {
		d.mRequests = reg.Counter("fastd.requests")
		d.mSessionCount = reg.Gauge("fastd.sessions")
		d.mPlanHits = reg.Counter("serve.plan_cache.hits")
		d.mPlanMisses = reg.Counter("serve.plan_cache.misses")
		d.mPlanEvicted = reg.Counter("serve.plan_cache.evicted")
		d.mResident = reg.Gauge("sessions.resident")
		d.mPersisted = reg.Gauge("sessions.persisted")
		d.mRestored = reg.Counter("sessions.restored")
		d.mEvicted = reg.Counter("sessions.evicted")
		d.mCorrupt = reg.Counter("sessions.corrupt")
		d.mIdemReplays = reg.Counter("fastd.idem.replays")
		d.mIdemRecorded = reg.Counter("fastd.idem.recorded")
		d.mShardMigrated = reg.Counter("fastd.shard.sessions_migrated")
		d.mShardLost = reg.Counter("fastd.shard.sessions_lost")
		d.mShardDown = reg.Counter("fastd.shard.down_refusals")
		// The session gauges are the registry's numbers, read when scraped.
		reg.OnScrape(func() {
			st := d.sessions.Stats()
			d.mSessionCount.Set(int64(st.Resident))
			d.mResident.Set(int64(st.Resident))
			d.mPersisted.Set(int64(st.Persisted))
		})
	}
	d.shards = make([]*evalShard, cfg.Shards)
	for i := range d.shards {
		d.shards[i] = newEvalShard(d, i)
	}
	// The supervisor health-checks shards through their own admission path
	// and fences the wedged ones. With a single shard there is no survivor to
	// fail over to, so probing is disabled (Kill still works for tests).
	var probe func(context.Context, int) error
	if cfg.Shards > 1 {
		probe = d.probeShard
	}
	d.sup = shardpkg.NewSupervisor(d.ring, shardpkg.SupervisorConfig{
		Shards:       cfg.Shards,
		Probe:        probe,
		Interval:     cfg.ProbeInterval,
		ProbeTimeout: cfg.ProbeTimeout,
		Threshold:    cfg.FenceThreshold,
		OnFence:      d.onFence,
		OnUnfence:    d.onUnfence,
		Reg:          reg,
	})
	if cfg.StateDir != "" {
		store, err := openSessionStore(cfg.StateDir, fault.NewInjector(cfg.StoreFaults), reg, d.logger)
		if err != nil {
			return nil, err
		}
		d.store = store
		// Persisted sessions are NOT restored here — startup stays O(files)
		// cheap and the first request for each session faults it in (decode,
		// checksum, parameter recompile, key deserialisation). Only the ID
		// space is recovered eagerly, so new creates never collide with
		// pre-crash sessions.
		ids, err := store.scan()
		if err != nil {
			return nil, fmt.Errorf("fastd: scan state dir: %w", err)
		}
		d.sessions.Adopt(ids)
		for _, id := range ids {
			if n, err := strconv.ParseUint(strings.TrimPrefix(id, "s"), 10, 64); err == nil && n > d.nextID.Load() {
				d.nextID.Store(n)
			}
		}
		if len(ids) > 0 {
			d.logger.Info("session state recovered", "dir", cfg.StateDir, "persisted", len(ids))
		}
		if cfg.SessionTTL > 0 {
			d.sweepStop = make(chan struct{})
			d.sweepDone = make(chan struct{})
			go d.sweepIdle()
		}
	}
	return d, nil
}

// route resolves a session ID to its ring-assigned live shard.
func (d *daemon) route(id string) (*evalShard, error) {
	i, err := d.ring.Owner(id)
	if err != nil {
		d.mShardDown.Inc()
		return nil, err
	}
	return d.shards[i], nil
}

// drain gracefully stops the supervisor, every shard's admission layer
// (bounded by ctx) and the idle sweeper. No final mass-snapshot is needed:
// durability is write-ahead, so whatever is on disk at any instant —
// graceful drain or SIGKILL — is already a consistent recovery image.
func (d *daemon) drain(ctx context.Context) error {
	d.draining.Store(true)
	d.stopOnce.Do(func() {
		d.sup.Stop()
		if d.sweepStop != nil {
			close(d.sweepStop)
			<-d.sweepDone
		}
	})
	var firstErr error
	var wg sync.WaitGroup
	var mu sync.Mutex
	for _, sh := range d.shards {
		wg.Add(1)
		go func(sh *evalShard) {
			defer wg.Done()
			if err := sh.srv.Drain(ctx); err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
		}(sh)
	}
	wg.Wait()
	return firstErr
}

// ---- HTTP surface ----------------------------------------------------------

// handler mounts the daemon's endpoints plus the observer's observability
// surface (/metrics, /debug/..., /snapshot.json, /trace.json), all wrapped in
// the request-correlation middleware so every response carries X-Request-Id
// and every request is tabled and access-logged.
func (d *daemon) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", d.handleHealthz)
	mux.HandleFunc("GET /readyz", d.handleReadyz)
	mux.HandleFunc("POST /v1/sessions", d.handleCreateSession)
	mux.HandleFunc("DELETE /v1/sessions/{id}", d.handleDeleteSession)
	mux.HandleFunc("POST /v1/sessions/{id}/encrypt", d.handleEncrypt)
	mux.HandleFunc("POST /v1/sessions/{id}/decrypt", d.handleDecrypt)
	mux.HandleFunc("POST /v1/sessions/{id}/eval", d.handleEval)
	mux.HandleFunc("POST /debug/shards/{id}/kill", d.handleKillShard)

	ob := d.observer.Handler()
	for _, p := range []string{"/metrics", "/debug/", "/snapshot.json", "/trace.json", "/trace.txt"} {
		mux.Handle(p, ob)
	}
	// Most-specific-pattern-wins: these shadow the observer's /debug/ catch-all.
	mux.Handle("GET /debug/requests", d.requests.Handler())
	mux.HandleFunc("GET /debug/plans", d.handlePlans)
	return d.withObservability(mux)
}

// handlePlans serves the observer's retained plan-execution records (the ring
// recordBatch fills), oldest first — the join surface between request IDs,
// batch sequence numbers and planner decisions.
func (d *daemon) handlePlans(w http.ResponseWriter, _ *http.Request) {
	recs := d.observer.PlanRecords()
	if recs == nil {
		recs = []fast.PlanRecord{}
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(map[string]any{"count": len(recs), "plans": recs})
}

func (d *daemon) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// sessionReadiness is /readyz's view of the session registry: occupancy
// against both bounds plus the durability lifecycle counters.
type sessionReadiness struct {
	Resident    int    `json:"resident"`
	Persisted   int    `json:"persisted"`
	Max         int    `json:"max"`
	MaxResident int    `json:"max_resident"`
	Restored    uint64 `json:"restored"`
	Evicted     uint64 `json:"evicted"`
	Corrupt     uint64 `json:"corrupt"`
}

func (d *daemon) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	type readiness struct {
		Ready      bool               `json:"ready"`
		Draining   bool               `json:"draining"`
		Queue      int                `json:"queue_depth"`
		Inflight   int                `json:"inflight_requests"`
		Shards     []shardReadiness   `json:"shards"`
		LiveShards int                `json:"live_shards"`
		Sessions   sessionReadiness   `json:"sessions"`
		Evk        evkReadiness       `json:"evk"`
		Latency    map[string]float64 `json:"latency"`
	}
	// Quantiles are estimated from the end-to-end log2-bucket latency
	// histogram (rank interpolation, within 2x of exact) — the same numbers
	// the serve.latency.p*_ns gauges export on /metrics.
	lat := d.observer.Registry().Histogram("serve.latency_ns").Snapshot()
	st := d.sessions.Stats()
	shards := d.shardReadiness(st)
	queue := 0
	for _, s := range shards {
		queue += s.Queue
	}
	sess := sessionReadiness{
		Resident:    st.Resident,
		Persisted:   st.Persisted,
		Max:         d.cfg.MaxSessions,
		MaxResident: d.cfg.MaxResident,
		Restored:    d.mRestored.Value(),
		Evicted:     d.mEvicted.Value(),
		Corrupt:     d.mCorrupt.Value(),
	}
	r := readiness{
		Draining:   d.draining.Load(),
		Queue:      queue,
		Inflight:   d.requests.Len(),
		Shards:     shards,
		LiveShards: d.ring.Live(),
		Sessions:   sess,
		Evk:        d.evkReadiness(),
		Latency: map[string]float64{
			"serve.latency.p50_ns": lat.Quantile(0.50),
			"serve.latency.p90_ns": lat.Quantile(0.90),
			"serve.latency.p99_ns": lat.Quantile(0.99),
		},
	}
	// Readiness flips when the NEXT unit of work would be refused everywhere:
	// draining, a full session budget (the next create 429s) or every shard
	// fenced. A fenced shard with live survivors keeps the daemon ready —
	// that is the point of failover: its sessions are being served elsewhere,
	// capacity degraded, availability did not.
	r.Ready = !r.Draining && r.LiveShards > 0 && st.Occupancy < d.cfg.MaxSessions
	if !r.Ready {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	writeJSON(w, r)
}

// sessionRequest mirrors fast.ContextConfig over the wire.
type sessionRequest struct {
	LogN        int   `json:"log_n"`
	LogSlots    int   `json:"log_slots"`
	Levels      int   `json:"levels"`
	LogScale    int   `json:"log_scale"`
	Rotations   []int `json:"rotations"`
	Conjugation bool  `json:"conjugation"`
	EnableKLSS  bool  `json:"enable_klss"`
	Seed        int64 `json:"seed"`
	Parallelism int   `json:"parallelism"`
}

type sessionResponse struct {
	ID       string `json:"id"`
	Slots    int    `json:"slots"`
	MaxLevel int    `json:"max_level"`
	Shard    int    `json:"shard"`
}

// sessionOptions are the options every session's Context is built with, at
// create and at restore alike: the shared observer, the shared evk tier under
// the BUILDING shard's tag — after a failover the survivor's lookups hit
// entries the fenced shard filled, the cross-shard reuse the tier exists for.
func (d *daemon) sessionOptions(id string, sh *evalShard) []fast.Option {
	return []fast.Option{fast.WithObserver(d.observer), fast.WithEvkCache(d.evk, id, sh.id)}
}

// newSession wraps a keyed Context in the state serving it needs.
func (d *daemon) newSession(fctx *fast.Context, logN int, meta fast.SessionMeta) *session {
	s := &session{
		id:    meta.ID,
		ctx:   fctx,
		cm:    costmodel.ForContext(logN, fctx.MaxLevel()),
		plans: newPlanCache(planCacheCap, d.mPlanHits, d.mPlanMisses),
		idem:  newIdemTable(d.cfg.IdemCap),
		meta:  meta,
	}
	if d.store != nil {
		s.journal = d.store.journal(meta.ID)
	}
	return s
}

func (d *daemon) handleCreateSession(w http.ResponseWriter, r *http.Request) {
	d.mRequests.Inc()
	var req sessionRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("decode session request: %w", err))
		return
	}
	cfg := fast.ContextConfig{
		LogN:        req.LogN,
		LogSlots:    req.LogSlots,
		Levels:      req.Levels,
		LogScale:    req.LogScale,
		Rotations:   req.Rotations,
		Conjugation: req.Conjugation,
		EnableKLSS:  req.EnableKLSS,
		Seed:        req.Seed,
		Parallelism: req.Parallelism,
	}

	id := "s" + strconv.FormatUint(d.nextID.Add(1), 10)
	sh, err := d.route(id)
	if err != nil {
		d.writeAdmissionError(w, r, err)
		return
	}
	// The slot is reserved BEFORE the expensive keygen (see Registry.Reserve),
	// given back if keygen fails and converted into the real entry by Publish.
	if !d.sessions.Reserve(id, sh.id) {
		httpError(w, http.StatusTooManyRequests,
			fmt.Errorf("session limit %d reached", d.cfg.MaxSessions))
		return
	}

	// Key generation is expensive: run it under the owning shard's admission
	// control too, so a burst of session creates cannot starve that shard's
	// evaluation workers unnoticed (and cannot starve any OTHER shard's
	// workers at all).
	var fctx *fast.Context
	units := keygenUnits(cfg)
	obsReq := obs.RequestFrom(r.Context())
	obsReq.SetSession(id)
	obsReq.SetUnits(units)
	err = sh.srv.Do(r.Context(), serve.Op{Name: "keygen", Units: units}, func(ctx context.Context) error {
		var err error
		fctx, err = fast.NewContext(cfg, d.sessionOptions(id, sh)...)
		return err
	})
	if err != nil {
		d.sessions.Abandon(id, false)
		d.writeAdmissionError(w, r, err)
		return
	}

	sess := d.newSession(fctx, cfg.LogN, fast.SessionMeta{
		ID:              id,
		CreatedUnixNano: time.Now().UnixNano(),
	})
	// Write-ahead durability: the snapshot hits disk (fsync'd, atomically
	// renamed) BEFORE the create response is released, so a session the client
	// has been told about survives a SIGKILL in the very next instruction. A
	// persistent write failure degrades to a resident-only session (counted
	// and logged) rather than refusing service.
	durable := d.store != nil && d.store.saveSnapshot(fctx, sess.meta) == nil
	switch d.sessions.Publish(id, sess, durable) {
	case sessreg.Resident:
		d.enforceResident(sh)
	case sessreg.Persisted:
		// The home shard was fenced while keygen ran. The client gets its
		// session all the same: the snapshot is on disk and the first request
		// restores it on a survivor.
	default:
		// Fenced, and nothing durable to fail over from: lost with the shard.
		d.mShardLost.Inc()
		d.writeAdmissionError(w, r, d.shardDown(id))
		return
	}
	writeJSON(w, sessionResponse{ID: id, Slots: fctx.Slots(), MaxLevel: fctx.MaxLevel(), Shard: sh.id})
}

func (d *daemon) handleDeleteSession(w http.ResponseWriter, r *http.Request) {
	d.mRequests.Inc()
	id := r.PathValue("id")
	s, was := d.sessions.Delete(id)
	if was == sessreg.Absent {
		httpError(w, http.StatusNotFound, fmt.Errorf("unknown session %q", id))
		return
	}
	if was == sessreg.Resident {
		d.mPlanEvicted.Add(uint64(s.plans.drop()))
	}
	if d.store != nil {
		d.store.remove(id)
	}
	w.WriteHeader(http.StatusNoContent)
}

type cnum struct {
	Re float64 `json:"re"`
	Im float64 `json:"im"`
}

func toComplex(vs []cnum) []complex128 {
	out := make([]complex128, len(vs))
	for i, v := range vs {
		out[i] = complex(v.Re, v.Im)
	}
	return out
}

func fromComplex(vs []complex128) []cnum {
	out := make([]cnum, len(vs))
	for i, v := range vs {
		out[i] = cnum{Re: real(v), Im: imag(v)}
	}
	return out
}

type encryptRequest struct {
	Values []cnum `json:"values"`
}

func (d *daemon) handleEncrypt(w http.ResponseWriter, r *http.Request) {
	d.mRequests.Inc()
	sh, sess, err := d.resolve(r.PathValue("id"))
	if err != nil {
		d.writeAdmissionError(w, r, err)
		return
	}
	d.withIdempotency(w, r, sess, func(w http.ResponseWriter) {
		var req encryptRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		obsReq := obs.RequestFrom(r.Context())
		obsReq.SetSession(sess.id)
		obsReq.SetUnits(sess.cm.PassUnits())
		ctx, cancel := requestContext(r)
		defer cancel()

		var resp *[]byte
		err := sh.srv.Do(ctx, serve.Op{Name: "encrypt", Units: sess.cm.PassUnits()}, func(ctx context.Context) error {
			ct, err := sess.ctx.Encrypt(toComplex(req.Values))
			if err != nil {
				return err
			}
			resp = renderCiphertext(ct)
			return nil
		})
		if err != nil {
			d.writeAdmissionError(w, r, err)
			return
		}
		sendRendered(w, resp)
	})
}

type decryptResponse struct {
	Values []cnum `json:"values"`
}

func (d *daemon) handleDecrypt(w http.ResponseWriter, r *http.Request) {
	d.mRequests.Inc()
	sh, sess, err := d.resolve(r.PathValue("id"))
	if err != nil {
		d.writeAdmissionError(w, r, err)
		return
	}
	body, err := readRequestBody(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	b64, err := scanDecryptEnvelope(*body)
	var ct *fast.Ciphertext
	if err == nil {
		ct, err = readCiphertext(sess.ctx, b64, nil)
	}
	bodyBufs.put(body)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	obsReq := obs.RequestFrom(r.Context())
	obsReq.SetSession(sess.id)
	obsReq.SetUnits(sess.cm.PassUnits())
	ctx, cancel := requestContext(r)
	defer cancel()

	var resp decryptResponse
	err = sh.srv.Do(ctx, serve.Op{Name: "decrypt", Units: sess.cm.PassUnits()}, func(ctx context.Context) error {
		vals := sess.ctx.Decrypt(ct)
		if vals == nil {
			return fmt.Errorf("decrypt: %w", fast.ErrInvalidCiphertext)
		}
		resp.Values = fromComplex(vals)
		return nil
	})
	if err != nil {
		d.writeAdmissionError(w, r, err)
		return
	}
	writeJSON(w, resp)
}

func (d *daemon) handleEval(w http.ResponseWriter, r *http.Request) {
	d.mRequests.Inc()
	sh, sess, err := d.resolve(r.PathValue("id"))
	if err != nil {
		d.writeAdmissionError(w, r, err)
		return
	}
	d.withIdempotency(w, r, sess, func(w http.ResponseWriter) {
		body, err := readRequestBody(r)
		if err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		obsReq := obs.RequestFrom(r.Context())
		obsReq.SetSession(sess.id)
		obsReq.SetPhase(obs.PhasePlanning)
		ce, err := compileEval(sess, *body)
		bodyBufs.put(body)
		if err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		obsReq.SetUnits(ce.plan.Units())
		obsReq.SetFingerprint(ce.plan.Fingerprint())
		ctx, cancel := requestContext(r)
		defer cancel()

		res, err := sh.batcher.Do(ctx, serve.Op{Name: "eval", Units: ce.plan.Units()}, sess.id, ce)
		if err != nil {
			d.writeAdmissionError(w, r, err)
			return
		}
		sendRendered(w, res.(*[]byte))
	})
}

// requestContext derives the task context from the request: the client
// disconnect propagates via r.Context(), and an optional X-Deadline-Ms header
// adds a deadline the admission layer can shed against. The deadline is also
// stamped onto the in-flight record for /debug/requests' remaining column.
func requestContext(r *http.Request) (context.Context, context.CancelFunc) {
	ctx := r.Context()
	if h := r.Header.Get("X-Deadline-Ms"); h != "" {
		if ms, err := strconv.Atoi(h); err == nil && ms > 0 {
			obs.RequestFrom(ctx).SetDeadline(time.Now().Add(time.Duration(ms) * time.Millisecond))
			return context.WithTimeout(ctx, time.Duration(ms)*time.Millisecond)
		}
	}
	return ctx, func() {}
}

// writeAdmissionError maps the serving-layer error taxonomy onto HTTP status
// codes — the degradation ladder, as seen by a client:
//
//	429 Too Many Requests   queue full (burst; back off and retry)
//	503 Service Unavailable draining or shard down (shard_down carries
//	                        Retry-After: failover is in progress, retry
//	                        shortly and a survivor serves it)
//	504 Gateway Timeout     shed: deadline provably unmeetable
//	408 Request Timeout     canceled/deadline mid-flight
//	404 Not Found           session unknown (neither resident nor on disk)
//	410 Gone                session snapshot corrupt: unrecoverable, re-create
//	500 Internal            panic (isolated) or evaluation failure
//
// The rung is also recorded as the request's outcome, so the access log names
// the exact ladder step even where the status code is ambiguous (503 covers
// draining and shard_down; 504 covers both shed and deadline).
func (d *daemon) writeAdmissionError(w http.ResponseWriter, r *http.Request, err error) {
	status := http.StatusInternalServerError
	outcome := "error"
	switch {
	case errors.Is(err, errUnknownSession):
		status, outcome = http.StatusNotFound, "unknown_session"
	case errors.Is(err, fast.ErrCorruptSnapshot):
		// 410 Gone: the snapshot failed integrity validation, so the session
		// is permanently unrecoverable — restoring it could decrypt wrongly.
		// Clients must re-create the keyspace, not retry.
		status, outcome = http.StatusGone, "corrupt_snapshot"
	case errors.Is(err, shardpkg.ErrShardDown):
		// Failover window: the owning shard is fenced and its sessions are
		// mid-migration. Retry-After tells the client this is the transient
		// rung — one short backoff and a surviving shard owns the range.
		w.Header().Set("Retry-After", "1")
		status, outcome = http.StatusServiceUnavailable, "shard_down"
	case errors.Is(err, serve.ErrQueueFull):
		status, outcome = http.StatusTooManyRequests, "queue_full"
	case errors.Is(err, serve.ErrShed):
		status, outcome = http.StatusGatewayTimeout, "shed"
	case errors.Is(err, serve.ErrDraining):
		status, outcome = http.StatusServiceUnavailable, "draining"
	case errors.Is(err, fast.ErrDeadline):
		status, outcome = http.StatusGatewayTimeout, "deadline"
	case errors.Is(err, fast.ErrCanceled):
		status, outcome = http.StatusRequestTimeout, "canceled"
	case errors.Is(err, serve.ErrPanicked):
		outcome = "panic"
	case errors.Is(err, fast.ErrKeyMissing), errors.Is(err, fast.ErrInvalidCiphertext),
		errors.Is(err, fast.ErrLevelMismatch), errors.Is(err, fast.ErrLevelExhausted),
		errors.Is(err, fast.ErrScaleMismatch), errors.Is(err, fast.ErrSlotCountMismatch),
		errors.Is(err, fast.ErrInvalidValue), errors.Is(err, fast.ErrMethodUnavailable),
		errors.Is(err, fast.ErrInvalidParameters):
		status, outcome = http.StatusBadRequest, "bad_request"
	}
	obs.RequestFrom(r.Context()).SetOutcome(outcome)
	httpError(w, status, err)
}

func httpError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", jsonContentType)
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", jsonContentType)
	_ = json.NewEncoder(w).Encode(v)
}
