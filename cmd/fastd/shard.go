package main

import (
	"fmt"
	"net/http"
	"strconv"

	"github.com/fastfhe/fast/internal/serve"
	sessreg "github.com/fastfhe/fast/internal/session"
)

// evalShard is one failure-isolated serving lane: its own admission queue
// and worker pool. The session registry places each session on one shard,
// so an overloaded queue or a panic storm on one shard cannot slow, refuse
// or wedge traffic owned by its neighbors. Which sessions a shard holds is
// the registry's to say; the shard is compute only.
type evalShard struct {
	id  int
	srv *serve.Server
}

func newEvalShard(d *daemon, id int) *evalShard {
	cfg := d.cfg
	return &evalShard{id: id, srv: serve.New(serve.Config{
		Workers:    cfg.Workers,
		QueueDepth: cfg.QueueDepth,
		Reg:        cfg.Observer.Registry(),
	})}
}

// ---- Fencing and failover -------------------------------------------------

// handleKillShard is the chaos endpoint, and the only thing that fences a
// shard: an in-process SIGKILL equivalent, idempotent per shard. One
// registry call fences the shard for the rest of the process lifetime and
// empties it, atomically: no create or restore is placed on it from then on,
// every resident session the disk describes goes back to persisted (its
// next request restores it, lazily, on a survivor), and a session whose
// durability write had degraded (resident-only) is lost with the shard —
// exactly what a SIGKILL would have cost — and gives its slot back. A create
// or restore that was already bound here is turned away by the registry
// when it publishes (503 + Retry-After for the restore: the retry restores
// on a survivor).
//
// Overload never fences: a full queue answers 429 and the shard keeps its
// sessions. Fencing a busy shard would move its load, as a storm of restores,
// onto the survivors.
func (d *daemon) handleKillShard(w http.ResponseWriter, r *http.Request) {
	d.mRequests.Inc()
	i, err := strconv.Atoi(r.PathValue("id"))
	if err != nil || i < 0 || i >= len(d.shards) {
		httpError(w, http.StatusBadRequest, fmt.Errorf("invalid shard %q", r.PathValue("id")))
		return
	}
	fenced, migrated, lost := d.sessions.Fence(i)
	live := d.sessions.Stats().Live
	if fenced {
		for _, s := range append(migrated, lost...) {
			d.mPlanEvicted.Add(uint64(s.plans.drop()))
		}
		d.mShardMigrated.Add(uint64(len(migrated)))
		d.mShardLost.Add(uint64(len(lost)))
		d.logger.Warn("shard fenced", "shard", i, "migrated", len(migrated), "lost", len(lost), "live", live)
	}
	writeJSON(w, map[string]any{
		"shard":  i,
		"killed": true,
		"live":   live,
	})
}

// shardReadiness is one shard's row in the /readyz per-shard view.
type shardReadiness struct {
	Shard    int  `json:"shard"`
	Fenced   bool `json:"fenced"`
	Queue    int  `json:"queue_depth"`
	Resident int  `json:"resident"`
	Draining bool `json:"draining"`
}

func (d *daemon) shardReadiness(st sessreg.Stats) []shardReadiness {
	out := make([]shardReadiness, len(d.shards))
	for i, sh := range d.shards {
		out[i] = shardReadiness{
			Shard:    i,
			Fenced:   st.ShardFenced[i],
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
