package sim

import (
	"testing"

	"github.com/fastfhe/fast/internal/arch"
	"github.com/fastfhe/fast/internal/costmodel"
	"github.com/fastfhe/fast/internal/obs"
	"github.com/fastfhe/fast/internal/workloads"
)

// The observed run must publish the Result into the registry and lay the ops
// on the synthetic Chrome-trace timeline.
func TestRunPublishesMetricsAndTrace(t *testing.T) {
	tr := workloads.Bootstrap(workloads.DefaultProfile())
	cfg := arch.FAST()
	params := costmodel.SetII()
	plan, _, err := Plan(params, cfg, tr, ModeAuto)
	if err != nil {
		t.Fatalf("Plan: %v", err)
	}
	s, err := New(params, cfg, plan)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	o := obs.NewTracing(0)
	s.SetObserver(o)
	res, err := s.Run(tr)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}

	snap := o.Snapshot()
	if got := snap.FloatGauges["sim.cycles"]; got != res.Cycles {
		t.Errorf("sim.cycles gauge = %g, want %g", got, res.Cycles)
	}
	for _, c := range []arch.Component{arch.NTTU, arch.BConvU, arch.KMU} {
		name := "sim.busy_cycles." + c.String()
		if got := snap.FloatGauges[name]; got != res.ComponentBusy[c] {
			t.Errorf("%s = %g, want %g", name, got, res.ComponentBusy[c])
		}
	}
	// Every op dispatched must be tallied, and every key-switch op must carry
	// an Aether verdict tally.
	var opTotal, ksTotal uint64
	for name, v := range snap.Counters {
		if len(name) > 7 && name[:7] == "sim.op." {
			opTotal += v
		}
	}
	ksTotal = snap.Counters["aether.decision.hybrid"] + snap.Counters["aether.decision.klss"]
	if opTotal != uint64(len(tr.Ops)) {
		t.Errorf("sim.op.* total = %d, want %d", opTotal, len(tr.Ops))
	}
	var wantKS uint64
	for _, op := range tr.Ops {
		if op.Kind.NeedsKeySwitch() {
			wantKS++
		}
	}
	if ksTotal != wantKS {
		t.Errorf("aether.decision.* total = %d, want %d", ksTotal, wantKS)
	}
	// Hemera pool counters must reconcile with the Result's bookkeeping.
	if hits := snap.Counters["hemera.pool.hits"]; hits != uint64(res.PoolHits) {
		t.Errorf("hemera.pool.hits = %d, want %d", hits, res.PoolHits)
	}
	if misses := snap.Counters["hemera.pool.misses"]; misses != uint64(res.PoolMisses) {
		t.Errorf("hemera.pool.misses = %d, want %d", misses, res.PoolMisses)
	}

	// Synthetic timeline: one ops-track span per op, metadata naming the
	// simulator process, spans on simulated (not wall-clock) timebase.
	events := o.Tr().Events()
	var opSpans, meta int
	for _, ev := range events {
		if ev.PID != TracePIDSimulator {
			continue
		}
		switch {
		case ev.Ph == "M":
			meta++
		case ev.Ph == "X" && ev.TID == simTIDOps:
			opSpans++
			if ev.Dur <= 0 {
				t.Errorf("op span %q has non-positive duration %g", ev.Name, ev.Dur)
			}
		}
	}
	if opSpans != len(tr.Ops) {
		t.Errorf("ops-track spans = %d, want %d", opSpans, len(tr.Ops))
	}
	if meta == 0 {
		t.Error("no metadata events naming the simulator tracks")
	}
}

// An unobserved simulator must behave identically (nil observer is the
// default; SetObserver(nil) detaches).
func TestRunUnobservedMatchesObserved(t *testing.T) {
	tr := workloads.ResNet20(workloads.DefaultProfile())
	cfg := arch.FAST()
	params := costmodel.SetII()
	plan, _, err := Plan(params, cfg, tr, ModeAether)
	if err != nil {
		t.Fatalf("Plan: %v", err)
	}
	s1, _ := New(params, cfg, plan)
	s2, _ := New(params, cfg, plan)
	s2.SetObserver(obs.NewTracing(0))
	r1, err := s1.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s2.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cycles != r2.Cycles || r1.TimeMS != r2.TimeMS || r1.EnergyJ != r2.EnergyJ {
		t.Errorf("observed run diverged: %+v vs %+v", r1, r2)
	}
	s2.SetObserver(nil)
	if _, err := s2.Run(tr); err != nil {
		t.Fatalf("detached run: %v", err)
	}
}
