package sim

import (
	"math"
	"reflect"
	"testing"

	"github.com/fastfhe/fast/internal/arch"
	"github.com/fastfhe/fast/internal/baselines"
	"github.com/fastfhe/fast/internal/costmodel"
	"github.com/fastfhe/fast/internal/trace"
	"github.com/fastfhe/fast/internal/workloads"
)

func runConfig(t *testing.T, cfg arch.Config, tr *trace.Trace) *Result {
	t.Helper()
	res, err := Simulate(costmodel.SetII(), cfg, tr, ModeAuto, nil)
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	return res
}

func TestNewRejectsInvalidConfig(t *testing.T) {
	bad := arch.FAST()
	bad.Clusters = 0
	if _, err := New(costmodel.SetII(), bad, nil); err == nil {
		t.Error("expected config validation error")
	}
}

func TestRunRejectsInvalidTrace(t *testing.T) {
	s, err := New(costmodel.SetII(), arch.FAST(), nil)
	if err != nil {
		t.Fatal(err)
	}
	bad := &trace.Trace{Name: "bad", Ops: []trace.Op{{Kind: trace.PMult, Level: -3, Hoist: 1}}}
	if _, err := s.Run(bad); err == nil {
		t.Error("expected trace validation error")
	}
}

// The headline reproduction: FAST must beat the SHARP-class baseline on
// bootstrapping by roughly the published 2.26x (Table 5: 3.12 ms vs 1.38 ms),
// and the absolute latencies must land near the published numbers.
func TestBootstrapSpeedupOverSHARP(t *testing.T) {
	tr := workloads.Bootstrap(workloads.DefaultProfile())
	sharp := runConfig(t, baselines.SHARP(), tr)
	fast := runConfig(t, arch.FAST(), tr)

	if sharp.TimeMS < 2.3 || sharp.TimeMS > 4.2 {
		t.Errorf("SHARP bootstrap %.2f ms, want ~3.12 ms", sharp.TimeMS)
	}
	if fast.TimeMS < 1.0 || fast.TimeMS > 1.9 {
		t.Errorf("FAST bootstrap %.2f ms, want ~1.38 ms", fast.TimeMS)
	}
	speedup := sharp.TimeMS / fast.TimeMS
	if speedup < 1.7 || speedup > 2.9 {
		t.Errorf("FAST/SHARP bootstrap speedup %.2f, want ~2.26", speedup)
	}
}

// Table 5 shape across all four workloads: FAST wins every row.
func TestFASTWinsAllWorkloads(t *testing.T) {
	p := workloads.DefaultProfile()
	for _, tr := range []*trace.Trace{
		workloads.Bootstrap(p),
		workloads.HELR(p, 256),
		workloads.HELR(p, 1024),
		workloads.ResNet20(p),
	} {
		sharp := runConfig(t, baselines.SHARP(), tr)
		fast := runConfig(t, arch.FAST(), tr)
		if fast.TimeMS >= sharp.TimeMS {
			t.Errorf("%s: FAST %.2f ms not faster than SHARP %.2f ms", tr.Name, fast.TimeMS, sharp.TimeMS)
		}
		r := sharp.TimeMS / fast.TimeMS
		if r < 1.4 || r > 3.0 {
			t.Errorf("%s: speedup %.2f outside the published 1.6-2.3 band", tr.Name, r)
		}
	}
}

// Fig. 12 ablation ladder must be monotone: 36-bit ALU < +Aether-Hemera
// (no TBM) < full FAST.
func TestAblationLadder(t *testing.T) {
	tr := workloads.Bootstrap(workloads.DefaultProfile())
	base := runConfig(t, baselines.FAST36(), tr)
	noTBM := runConfig(t, baselines.FASTNoTBM(), tr)
	full := runConfig(t, arch.FAST(), tr)
	if !(full.TimeMS < noTBM.TimeMS && noTBM.TimeMS < base.TimeMS) {
		t.Errorf("ablation not monotone: full %.2f, noTBM %.2f, base %.2f",
			full.TimeMS, noTBM.TimeMS, base.TimeMS)
	}
	if r := base.TimeMS / noTBM.TimeMS; r < 1.1 {
		t.Errorf("Aether-Hemera alone should give >1.1x (paper 1.3x), got %.2f", r)
	}
}

// Fig. 10: hoisting and Aether reduce bootstrap time versus OneKSW, and
// Aether moves a large share of the former hybrid key-switch time to KLSS.
func TestPlanLadder(t *testing.T) {
	params := costmodel.SetII()
	cfg := arch.FAST()
	tr := workloads.Bootstrap(workloads.DefaultProfile())

	times := map[string]float64{}
	var aetherRes *Result
	for _, name := range []string{"oneksw", "hoisting", "aether"} {
		mode, err := ParseMode(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Simulate(params, cfg, tr, mode, nil)
		if err != nil {
			t.Fatal(err)
		}
		times[name] = res.TimeMS
		if mode == ModeAether {
			aetherRes = res
		}
	}
	if times["hoisting"] >= times["oneksw"] {
		t.Errorf("hoisting (%.3f) should beat OneKSW (%.3f)", times["hoisting"], times["oneksw"])
	}
	if times["aether"] > times["oneksw"]*0.95 {
		t.Errorf("Aether (%.3f) should clearly beat OneKSW (%.3f)", times["aether"], times["oneksw"])
	}
	if aetherRes.MethodCycles[costmodel.KLSS] == 0 {
		t.Error("Aether plan should execute some key-switches with KLSS")
	}
}

// Fig. 11(a): FAST's component profile — NTTU is the busiest unit; HBM
// traffic is substantial; nothing exceeds 100%.
func TestUtilizationProfile(t *testing.T) {
	tr := workloads.Bootstrap(workloads.DefaultProfile())
	res := runConfig(t, arch.FAST(), tr)
	ntt := res.Utilization(arch.NTTU)
	if ntt < 0.4 || ntt > 0.9 {
		t.Errorf("NTTU utilisation %.2f, want ~0.66", ntt)
	}
	for _, c := range arch.Components() {
		u := res.Utilization(c)
		if u < 0 || u > 1.0001 {
			t.Errorf("%v utilisation %.3f out of range", c, u)
		}
		if c != arch.HBM && c != arch.RegisterFile && c != arch.NoC && u > ntt+1e-9 {
			t.Errorf("%v (%.2f) should not exceed the NTTU (%.2f)", c, u, ntt)
		}
	}
	if hbm := res.Utilization(arch.HBM); hbm < 0.2 || hbm > 0.9 {
		t.Errorf("HBM utilisation %.2f, want ~0.44-0.6", hbm)
	}
}

// Fig. 13(b): halving the clusters must slow FAST down; doubling must speed
// it up but sublinearly (HBM limits).
func TestClusterSensitivity(t *testing.T) {
	tr := workloads.Bootstrap(workloads.DefaultProfile())
	c2 := runConfig(t, arch.FAST().WithClusters(2), tr)
	c4 := runConfig(t, arch.FAST(), tr)
	c8 := runConfig(t, arch.FAST().WithClusters(8), tr)
	if !(c8.TimeMS < c4.TimeMS && c4.TimeMS < c2.TimeMS) {
		t.Errorf("cluster scaling not monotone: %.2f / %.2f / %.2f", c2.TimeMS, c4.TimeMS, c8.TimeMS)
	}
	if sp := c4.TimeMS / c8.TimeMS; sp >= 2.0 {
		t.Errorf("8-cluster speedup %.2f should be sublinear (paper ~1.7)", sp)
	}
}

// Fig. 13(a): shrinking SRAM hurts; growing it beyond the working set gives
// little.
func TestMemorySensitivity(t *testing.T) {
	tr := workloads.Bootstrap(workloads.DefaultProfile())
	small := runConfig(t, arch.FAST().WithOnChipMB(70), tr)
	normal := runConfig(t, arch.FAST(), tr)
	big := runConfig(t, arch.FAST().WithOnChipMB(562), tr)
	if small.TimeMS <= normal.TimeMS {
		t.Errorf("small SRAM (%.3f) should be slower than normal (%.3f)", small.TimeMS, normal.TimeMS)
	}
	gain := normal.TimeMS / big.TimeMS
	if gain > 1.3 {
		t.Errorf("doubling SRAM should not give large gains, got %.2fx", gain)
	}
}

func TestEnergyAccounting(t *testing.T) {
	tr := workloads.Bootstrap(workloads.DefaultProfile())
	res := runConfig(t, arch.FAST(), tr)
	if res.AvgPowerW < 60 || res.AvgPowerW > 250 {
		t.Errorf("average power %.1f W implausible (paper ~120-160 W)", res.AvgPowerW)
	}
	if res.EnergyJ <= 0 || res.EDP <= 0 {
		t.Error("energy/EDP must be positive")
	}
	wantE := res.AvgPowerW * res.TimeMS / 1e3
	if diff := res.EnergyJ - wantE; diff > 1e-9 || diff < -1e-9 {
		t.Error("energy != power * time")
	}
}

// Every workload on every config: a repeated run returns the same Result,
// and the traffic, stall, cycle and energy fields reconcile with each other
// (stalls are the unhidden part of the HBM traffic; runtime covers both).
func TestRunDeterministicAndAccounted(t *testing.T) {
	p := workloads.DefaultProfile()
	for _, cfg := range []arch.Config{arch.FAST(), baselines.SHARP()} {
		for _, tr := range []*trace.Trace{
			workloads.Bootstrap(p),
			workloads.HELR(p, 256),
			workloads.HELR(p, 1024),
			workloads.ResNet20(p),
		} {
			t.Run(cfg.Name+"/"+tr.Name, func(t *testing.T) {
				a, b := runConfig(t, cfg, tr), runConfig(t, cfg, tr)
				if !reflect.DeepEqual(a, b) {
					t.Fatalf("same plan, different results:\n%+v\nvs\n%+v", a, b)
				}
				if a.EvkBytes <= 0 || a.PoolMisses == 0 {
					t.Fatalf("no evk traffic: %d bytes, %d misses", a.EvkBytes, a.PoolMisses)
				}
				if a.Prefetched > a.PoolMisses {
					t.Errorf("prefetched %d of only %d misses", a.Prefetched, a.PoolMisses)
				}
				if want := float64(a.EvkBytes) / cfg.BytesPerCycle(); math.Abs(a.TransferCy-want) > 1e-9*want {
					t.Errorf("TransferCy %.0f, want %.0f for %d evk bytes", a.TransferCy, want, a.EvkBytes)
				}
				if a.StallCy < 0 || a.StallCy > a.TransferCy {
					t.Errorf("StallCy %.0f outside [0, TransferCy %.0f]", a.StallCy, a.TransferCy)
				}
				if a.TransferCy+a.StallCy > a.Cycles {
					t.Errorf("Cycles %.0f do not cover transfer %.0f + stall %.0f", a.Cycles, a.TransferCy, a.StallCy)
				}
				sec := a.TimeMS / 1e3
				if math.Abs(a.EnergyJ-a.AvgPowerW*sec) > 1e-12 || math.Abs(a.EDP-a.EnergyJ*sec) > 1e-15 {
					t.Errorf("energy %g J / EDP %g do not match %g W over %g s", a.EnergyJ, a.EDP, a.AvgPowerW, sec)
				}
			})
		}
	}
}

func TestPhaseBreakdownCoversBootstrap(t *testing.T) {
	tr := workloads.Bootstrap(workloads.DefaultProfile())
	res := runConfig(t, arch.FAST(), tr)
	var sum float64
	for _, ph := range tr.Phases() {
		if res.PhaseCycles[ph] <= 0 {
			t.Errorf("phase %q has no cycles", ph)
		}
		sum += res.PhaseCycles[ph]
	}
	if sum <= 0 || sum > res.Cycles*1.01 {
		t.Errorf("phase cycles %f inconsistent with total %f", sum, res.Cycles)
	}
}

func TestNilPlanDefaultsToHybrid(t *testing.T) {
	s, err := New(costmodel.SetII(), baselines.SHARP(), nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(workloads.Bootstrap(workloads.DefaultProfile()))
	if err != nil {
		t.Fatal(err)
	}
	if res.MethodCycles[costmodel.KLSS] != 0 {
		t.Error("nil plan must never run KLSS")
	}
	if res.TimeMS <= 0 {
		t.Error("no time elapsed")
	}
}

// Bootstrapping dominates every application (87.7% average in the paper).
func TestBootstrapDominance(t *testing.T) {
	p := workloads.DefaultProfile()
	for _, tr := range []*trace.Trace{workloads.HELR(p, 256), workloads.ResNet20(p)} {
		res := runConfig(t, arch.FAST(), tr)
		boot := res.PhaseCycles["ModRaise"] + res.PhaseCycles["CoeffToSlot"] +
			res.PhaseCycles["EvalMod"] + res.PhaseCycles["SlotToCoeff"]
		var sum float64
		for _, c := range res.PhaseCycles {
			sum += c
		}
		if frac := boot / sum; frac < 0.75 {
			t.Errorf("%s: bootstrap fraction %.2f, want > 0.75 (paper ~0.88)", tr.Name, frac)
		}
	}
}

// Ablation: disabling Hemera's prefetch must not speed anything up, and on
// transfer-heavy plans it must cost measurable stall cycles.
func TestPrefetchAblation(t *testing.T) {
	tr := workloads.Bootstrap(workloads.DefaultProfile())
	on := runConfig(t, arch.FAST(), tr)
	cfg := arch.FAST()
	cfg.DisablePrefetch = true
	off := runConfig(t, cfg, tr)
	if off.TimeMS < on.TimeMS {
		t.Errorf("disabling prefetch made the run faster: %.3f vs %.3f", off.TimeMS, on.TimeMS)
	}
	if off.StallCy <= on.StallCy {
		t.Errorf("disabling prefetch should add stalls: %.0f vs %.0f", off.StallCy, on.StallCy)
	}
}

// Every -plan name parses to its own mode, and an unknown name or mode is an
// error rather than a silent fallback to the configuration's flags.
func TestParseModeAndUnknownMode(t *testing.T) {
	for name, want := range map[string]Mode{"": ModeAuto, "oneksw": ModeOneKSW, "hoisting": ModeHoisting, "aether": ModeAether} {
		if got, err := ParseMode(name); err != nil || got != want {
			t.Errorf("ParseMode(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := ParseMode("bogus"); err == nil || err.Error() != `unknown plan "bogus"` {
		t.Errorf("ParseMode(bogus) error = %v", err)
	}
	tr := workloads.Bootstrap(workloads.DefaultProfile())
	if _, err := Simulate(costmodel.SetII(), arch.FAST(), tr, Mode(42), nil); err == nil {
		t.Error("Simulate accepted mode 42")
	}
}
