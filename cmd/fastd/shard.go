package main

import (
	"context"
	"fmt"
	"net/http"
	"strconv"

	fast "github.com/fastfhe/fast"
	"github.com/fastfhe/fast/internal/obs"
	"github.com/fastfhe/fast/internal/serve"
	sessreg "github.com/fastfhe/fast/internal/session"
)

// evalShard is one failure-isolated serving lane: its own admission queue,
// worker pool and micro-batcher. The consistent-hash ring pins each session
// ID to one shard, so an overloaded queue or a panic storm on one shard
// cannot slow, refuse or wedge traffic owned by its neighbors. Which sessions
// a shard holds is the daemon's session registry's to say; the shard is
// compute only.
type evalShard struct {
	id      int
	srv     *serve.Server
	batcher *serve.Batcher
}

func newEvalShard(d *daemon, id int) *evalShard {
	cfg := d.cfg
	reg := cfg.Observer.Registry()
	sh := &evalShard{id: id}
	sh.srv = serve.New(serve.Config{
		Workers:    cfg.Workers,
		QueueDepth: cfg.QueueDepth,
		Reg:        reg,
	})
	// Eval requests batch by session: concurrently admitted programs on one
	// keyspace execute as a micro-batch, sharing hoisted decompositions when
	// their rotation groups read identical input ciphertexts. Batch keys are
	// session IDs and sessions are shard-pinned, so per-shard batchers never
	// split a batch.
	sh.batcher = serve.NewBatcher(sh.srv, sh.runEvalBatch, reg)
	return sh
}

// runEvalBatch executes one micro-batch of compiled eval requests. All items
// share a batch key (the session ID), so one session context executes them;
// each run keeps its own request context for per-request cancellation.
func (sh *evalShard) runEvalBatch(items []*serve.BatchItem) {
	runs := make([]*fast.Run, len(items))
	var sess *session
	for i, it := range items {
		ce := it.Payload.(*compiledEval)
		sess = ce.sess
		runs[i] = &fast.Run{
			Plan:     ce.plan,
			Inputs:   ce.inputs,
			InputIDs: ce.inputIDs,
			Ctx:      it.Ctx,
		}
	}
	sess.ctx.ExecuteBatch(runs)
	for i, it := range items {
		// Stamp the batch sequence onto the in-flight record so the access
		// log and /debug/requests can join against /debug/plans.
		obs.RequestFrom(it.Ctx).SetBatch(runs[i].Batch)
		if runs[i].Err != nil {
			it.Finish(nil, runs[i].Err)
			continue
		}
		it.Finish(renderCiphertext(runs[i].Out), nil)
	}
}

// ---- Supervision, fencing and failover -------------------------------------

// probeShard is the supervisor's health probe: a zero-unit task through the
// shard's own admission queue and worker pool, so a wedged pool, a queue that
// never drains, or a deadlocked worker all surface as probe failures.
func (d *daemon) probeShard(ctx context.Context, i int) error {
	return d.shards[i].srv.Do(ctx, serve.Op{Name: "probe", Units: 0}, func(context.Context) error { return nil })
}

// onFence empties a fenced shard so the survivors can serve its sessions:
// every resident session the disk describes goes back to persisted (its next
// request restores it, lazily, on whichever live shard the ring now routes it
// to); a session whose durability write had degraded (resident-only) is lost
// with the shard — exactly what a SIGKILL would have cost — and gives its
// slot back.
//
// The ring was fenced before this callback runs, so no new session routes
// here, and a create or restore that was already bound here is turned away
// by the registry when it publishes (503 + Retry-After for the restore: the
// retry restores on a survivor).
func (d *daemon) onFence(i int, reason string) {
	migrated, lost := d.sessions.Fence(i)
	for _, s := range append(migrated, lost...) {
		d.mPlanEvicted.Add(uint64(s.plans.drop()))
	}
	d.mShardMigrated.Add(uint64(len(migrated)))
	d.mShardLost.Add(uint64(len(lost)))
	d.logger.Warn("shard fenced", "shard", i, "reason", reason,
		"migrated", len(migrated), "lost", len(lost), "live", d.ring.Live())
}

// onUnfence lets a recovered shard take sessions again. Its old sessions are
// NOT pulled back eagerly: they stay resident where failover restored them
// and drift home lazily — the next restore-after-eviction lands on the
// ring-routed shard again.
func (d *daemon) onUnfence(i int) {
	d.sessions.Unfence(i)
	d.logger.Info("shard unfenced", "shard", i, "live", d.ring.Live())
}

// handleKillShard is the chaos endpoint: an in-process SIGKILL equivalent.
// The shard is fenced permanently (the supervisor never probes or unfences a
// killed shard), its hash range remaps to the survivors, and its sessions
// fail over through their snapshots. Idempotent per shard.
func (d *daemon) handleKillShard(w http.ResponseWriter, r *http.Request) {
	d.mRequests.Inc()
	i, err := strconv.Atoi(r.PathValue("id"))
	if err != nil || i < 0 || i >= len(d.shards) {
		httpError(w, http.StatusBadRequest, fmt.Errorf("invalid shard %q", r.PathValue("id")))
		return
	}
	d.sup.Kill(i, "kill endpoint")
	writeJSON(w, map[string]any{
		"shard":  i,
		"killed": true,
		"live":   d.ring.Live(),
	})
}

// shardReadiness is one shard's row in the /readyz per-shard view.
type shardReadiness struct {
	Shard    int  `json:"shard"`
	Fenced   bool `json:"fenced"`
	Killed   bool `json:"killed"`
	Queue    int  `json:"queue_depth"`
	Resident int  `json:"resident"`
	Draining bool `json:"draining"`
}

func (d *daemon) shardReadiness(st sessreg.Stats) []shardReadiness {
	out := make([]shardReadiness, len(d.shards))
	for i, sh := range d.shards {
		out[i] = shardReadiness{
			Shard:    i,
			Fenced:   d.ring.Fenced(i),
			Killed:   d.sup.Killed(i),
			Queue:    sh.srv.QueueLen(),
			Resident: st.ShardResident[i],
			Draining: sh.srv.Draining(),
		}
	}
	return out
}

// evkReadiness surfaces the shared evk tier on /readyz so operators (and the
// chaos harness) can check budget compliance and cross-shard reuse without
// scraping /metrics.
type evkReadiness struct {
	Hits           uint64 `json:"hits"`
	Misses         uint64 `json:"misses"`
	Evictions      uint64 `json:"evictions"`
	CrossShardHits uint64 `json:"cross_shard_hits"`
	ResidentBytes  int64  `json:"resident_bytes"`
	BudgetBytes    int64  `json:"budget_bytes"`
}

func (d *daemon) evkReadiness() evkReadiness {
	st := d.evk.Stats()
	return evkReadiness{
		Hits:           st.Hits,
		Misses:         st.Misses,
		Evictions:      st.Evictions,
		CrossShardHits: st.CrossShardHits,
		ResidentBytes:  st.ResidentBytes,
		BudgetBytes:    st.Capacity,
	}
}

// splitResident slices the global MaxResident bound across n shards (every
// shard gets at least 1).
func splitResident(maxResident, n int) []int {
	out := make([]int, n)
	base, extra := maxResident/n, maxResident%n
	for i := range out {
		out[i] = base
		if i < extra {
			out[i]++
		}
		if out[i] < 1 {
			out[i] = 1
		}
	}
	return out
}
