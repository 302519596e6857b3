package shard

import (
	"context"
	"sync"
	"time"

	"github.com/fastfhe/fast/internal/obs"
)

// Supervisor health-checks shards and fences the ones that stop responding.
//
// Every Interval it sends each live shard a probe through the shard's own
// admission path (the Probe callback — fastd wires a no-op task through the
// shard's worker pool, so a wedged pool, a full queue that never drains or a
// deadlocked worker all surface as probe failures). Threshold consecutive
// failures fence the shard: the ring stops routing to it and the OnFence
// callback migrates its sessions. A fenced shard keeps being probed; one
// clean probe unfences it (the wedge cleared — e.g. the queue drained), with
// OnUnfence giving the owner a chance to reclaim routing state. Shards
// fenced via Kill are dead to the supervisor and are never probed again —
// that is the in-process analogue of SIGKILL, used by the chaos harness.
type Supervisor struct {
	cfg  SupervisorConfig
	ring *Ring

	mu     sync.Mutex
	fails  []int  // consecutive probe failures per shard
	killed []bool // fenced permanently via Kill; never probed again

	stop chan struct{}
	done chan struct{}
	once sync.Once

	mProbes   *obs.Counter
	mFailures *obs.Counter
	mFences   *obs.Counter
	mUnfences *obs.Counter
	mLive     *obs.Gauge
}

// SupervisorConfig wires a Supervisor.
type SupervisorConfig struct {
	// Shards is the member count; must match the ring.
	Shards int
	// Probe executes one health probe against shard i, bounded by ctx. A nil
	// Probe disables the loop (Kill/fencing still work — the chaos path).
	Probe func(ctx context.Context, shard int) error
	// Interval between probe rounds (default 500ms).
	Interval time.Duration
	// ProbeTimeout bounds one probe (default Interval).
	ProbeTimeout time.Duration
	// Threshold is the consecutive-failure count that fences (default 3).
	Threshold int
	// OnFence runs after shard i is fenced (ring already updated): migrate
	// its sessions, count, log. Called outside the supervisor lock.
	OnFence func(shard int, reason string)
	// OnUnfence runs after a recovered shard rejoins the ring.
	OnUnfence func(shard int)
	// Reg registers the shard.supervisor.* instruments (nil disables).
	Reg *obs.Registry
}

func (c SupervisorConfig) withDefaults() SupervisorConfig {
	if c.Interval <= 0 {
		c.Interval = 500 * time.Millisecond
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = c.Interval
	}
	if c.Threshold < 1 {
		c.Threshold = 3
	}
	return c
}

// NewSupervisor builds the supervisor over ring and starts the probe loop
// (when cfg.Probe is set). Stop it with Stop.
func NewSupervisor(ring *Ring, cfg SupervisorConfig) *Supervisor {
	cfg = cfg.withDefaults()
	if cfg.Shards <= 0 {
		cfg.Shards = ring.Members()
	}
	s := &Supervisor{
		cfg:    cfg,
		ring:   ring,
		fails:  make([]int, cfg.Shards),
		killed: make([]bool, cfg.Shards),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	if reg := cfg.Reg; reg != nil {
		s.mProbes = reg.Counter("shard.supervisor.probes")
		s.mFailures = reg.Counter("shard.supervisor.probe_failures")
		s.mFences = reg.Counter("shard.supervisor.fences")
		s.mUnfences = reg.Counter("shard.supervisor.unfences")
		s.mLive = reg.Gauge("shard.live")
	}
	s.mLive.Set(int64(ring.Live()))
	if cfg.Probe != nil {
		go s.loop()
	} else {
		close(s.done)
	}
	return s
}

func (s *Supervisor) loop() {
	defer close(s.done)
	tick := time.NewTicker(s.cfg.Interval)
	defer tick.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-tick.C:
		}
		for i := 0; i < s.cfg.Shards; i++ {
			s.mu.Lock()
			dead := s.killed[i]
			s.mu.Unlock()
			if dead {
				continue
			}
			s.probeOne(i)
		}
	}
}

func (s *Supervisor) probeOne(i int) {
	s.mProbes.Inc()
	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.ProbeTimeout)
	err := s.cfg.Probe(ctx, i)
	cancel()
	if err == nil {
		s.mu.Lock()
		s.fails[i] = 0
		s.mu.Unlock()
		if s.ring.Fenced(i) {
			s.unfence(i)
		}
		return
	}
	s.mFailures.Inc()
	s.mu.Lock()
	s.fails[i]++
	trip := s.fails[i] >= s.cfg.Threshold && !s.ring.Fenced(i)
	s.mu.Unlock()
	if trip {
		s.fence(i, "probe: "+err.Error())
	}
}

func (s *Supervisor) fence(i int, reason string) {
	live := s.ring.Fence(i)
	s.mFences.Inc()
	s.mLive.Set(int64(live))
	if s.cfg.OnFence != nil {
		s.cfg.OnFence(i, reason)
	}
}

func (s *Supervisor) unfence(i int) {
	live := s.ring.Unfence(i)
	s.mUnfences.Inc()
	s.mLive.Set(int64(live))
	if s.cfg.OnUnfence != nil {
		s.cfg.OnUnfence(i)
	}
}

// Kill fences shard i permanently: the supervisor will never probe (and so
// never unfence) it again. This is the SIGKILL-equivalent the chaos harness
// drives — the shard's key range moves to the survivors for the rest of the
// process lifetime. Idempotent.
func (s *Supervisor) Kill(i int, reason string) {
	if i < 0 || i >= s.cfg.Shards {
		return
	}
	s.mu.Lock()
	already := s.killed[i]
	s.killed[i] = true
	s.mu.Unlock()
	if !already && !s.ring.Fenced(i) {
		s.fence(i, reason)
	}
}

// Killed reports whether shard i was fenced permanently via Kill.
func (s *Supervisor) Killed(i int) bool {
	if i < 0 || i >= s.cfg.Shards {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.killed[i]
}

// Stop terminates the probe loop (idempotent, waits for exit).
func (s *Supervisor) Stop() {
	s.once.Do(func() { close(s.stop) })
	<-s.done
}
