package fast

import (
	"fmt"

	"github.com/fastfhe/fast/internal/aether"
	"github.com/fastfhe/fast/internal/arch"
	"github.com/fastfhe/fast/internal/baselines"
	"github.com/fastfhe/fast/internal/costmodel"
	"github.com/fastfhe/fast/internal/sim"
	"github.com/fastfhe/fast/internal/trace"
	"github.com/fastfhe/fast/internal/workloads"
)

// Accelerator is a simulatable hardware configuration.
type Accelerator struct {
	cfg arch.Config
}

// Name returns the configuration name.
func (a Accelerator) Name() string { return a.cfg.Name }

// AreaMM2 returns the modelled chip area.
func (a Accelerator) AreaMM2() float64 { return a.cfg.TotalAreaPower().AreaMM2 }

// PeakPowerW returns the modelled peak power.
func (a Accelerator) PeakPowerW() float64 { return a.cfg.TotalAreaPower().PowerW }

// Config exposes the underlying architecture description.
func (a Accelerator) Config() arch.Config { return a.cfg }

// WithClusters returns a copy with a different cluster count (Fig. 13(b)).
func (a Accelerator) WithClusters(n int) Accelerator {
	return Accelerator{a.cfg.WithClusters(n)}
}

// WithOnChipMB returns a copy with a different SRAM capacity (Fig. 13(a)).
func (a Accelerator) WithOnChipMB(mb float64) Accelerator {
	return Accelerator{a.cfg.WithOnChipMB(mb)}
}

// FASTAccelerator returns the paper's FAST configuration: 4 clusters x 256
// lanes of tunable-bit multipliers, 281 MB SRAM, 1 TB/s HBM.
func FASTAccelerator() Accelerator { return Accelerator{arch.FAST()} }

// SHARPAccelerator returns the SHARP-class 36-bit baseline.
func SHARPAccelerator() Accelerator { return Accelerator{baselines.SHARP()} }

// SHARPLMAccelerator returns SHARP with 281 MB SRAM and hoisting.
func SHARPLMAccelerator() Accelerator { return Accelerator{baselines.SHARPLM()} }

// SHARP8CAccelerator returns the 8-cluster SHARP variant.
func SHARP8CAccelerator() Accelerator { return Accelerator{baselines.SHARP8C()} }

// SHARPLM8CAccelerator returns the large-memory 8-cluster SHARP variant.
func SHARPLM8CAccelerator() Accelerator { return Accelerator{baselines.SHARPLM8C()} }

// FASTNoTBMAccelerator returns the Fig. 12 ablation point without the TBM.
func FASTNoTBMAccelerator() Accelerator { return Accelerator{baselines.FASTNoTBM()} }

// FAST36Accelerator returns the Fig. 12 36-bit-ALU baseline.
func FAST36Accelerator() Accelerator { return Accelerator{baselines.FAST36()} }

// Workload is a benchmark operation trace.
type Workload struct {
	tr *trace.Trace
}

// Name returns the workload name.
func (w Workload) Name() string { return w.tr.Name }

// KeySwitches returns the number of key-switching dataflows in the trace.
func (w Workload) KeySwitches() int { return w.tr.KeySwitchCount() }

// BootstrapWorkload returns the fully-packed CKKS bootstrapping benchmark.
func BootstrapWorkload() Workload {
	return Workload{workloads.Bootstrap(workloads.DefaultProfile())}
}

// HELRWorkload returns one logistic-regression training iteration with the
// given batch size (256 or 1024 in the paper).
func HELRWorkload(batch int) Workload {
	return Workload{workloads.HELR(workloads.DefaultProfile(), batch)}
}

// HELRTrainingWorkload returns the full multi-iteration HELR training run
// (the paper trains for 32 iterations; Table 5 reports per-iteration
// latency, Table 7's energies are consistent with whole-run totals).
func HELRTrainingWorkload(batch, iterations int) Workload {
	return Workload{workloads.HELRTraining(workloads.DefaultProfile(), batch, iterations)}
}

// ResNet20Workload returns the encrypted ResNet-20 inference benchmark.
func ResNet20Workload() Workload {
	return Workload{workloads.ResNet20(workloads.DefaultProfile())}
}

// PlanMode selects how key-switching is scheduled (Fig. 10).
type PlanMode int

const (
	// PlanAuto follows the accelerator's feature flags.
	PlanAuto PlanMode = iota
	// PlanOneKSW forces non-hoisted hybrid everywhere.
	PlanOneKSW
	// PlanHoisting enables hoisting but keeps the hybrid method.
	PlanHoisting
	// PlanAether enables the full dual-method selection.
	PlanAether
)

// Report is the outcome of one simulation.
type Report struct {
	Accelerator string
	Workload    string

	TimeMS    float64
	Cycles    float64
	EnergyJ   float64
	AvgPowerW float64
	EDP       float64

	EvkTrafficMB  float64
	HBMUtil       float64
	NTTUUtil      float64
	BConvUUtil    float64
	KMUUtil       float64
	HybridCycles  float64
	KLSSCycles    float64
	PhaseCycles   map[string]float64
	TotalModOps   float64
	KernelNTT     float64
	KernelBConv   float64
	KernelKeyMult float64
	KernelOther   float64
}

// Simulate plans and executes a workload on an accelerator.
func Simulate(w Workload, acc Accelerator, mode PlanMode) (*Report, error) {
	return SimulateObserved(w, acc, mode, nil)
}

// SimulateObserved is Simulate with an observability substrate attached: the
// run publishes its Result into the observer's registry (cycles, stalls,
// per-component busy time, per-OpKind dispatch counts, Aether decision
// tallies, Hemera pool traffic) and — when the observer carries a tracer —
// lays every operation on a synthetic simulated-time Chrome-trace timeline
// with one track per hardware component. A nil observer makes it identical
// to Simulate.
func SimulateObserved(w Workload, acc Accelerator, mode PlanMode, ob *Observer) (*Report, error) {
	params := costmodel.SetII()
	cfg := acc.cfg
	klss, hoist := cfg.EnableKLSS, cfg.EnableHoisting
	switch mode {
	case PlanOneKSW:
		klss, hoist = false, false
	case PlanHoisting:
		klss, hoist = false, true
	case PlanAether:
		klss, hoist = true, true
	case PlanAuto:
	default:
		return nil, fmt.Errorf("fast: unknown plan mode %d", mode)
	}
	plan, err := sim.Plan(params, cfg, w.tr, klss, hoist)
	if err != nil {
		return nil, err
	}
	s, err := sim.New(params, cfg, plan)
	if err != nil {
		return nil, err
	}
	if ob != nil {
		s.SetObserver(ob.unwrap())
	}
	res, err := s.Run(w.tr)
	if err != nil {
		return nil, err
	}
	return &Report{
		Accelerator:   cfg.Name,
		Workload:      w.tr.Name,
		TimeMS:        res.TimeMS,
		Cycles:        res.Cycles,
		EnergyJ:       res.EnergyJ,
		AvgPowerW:     res.AvgPowerW,
		EDP:           res.EDP,
		EvkTrafficMB:  float64(res.EvkBytes) / (1 << 20),
		HBMUtil:       res.Utilization(arch.HBM),
		NTTUUtil:      res.Utilization(arch.NTTU),
		BConvUUtil:    res.Utilization(arch.BConvU),
		KMUUtil:       res.Utilization(arch.KMU),
		HybridCycles:  res.MethodCycles[costmodel.Hybrid],
		KLSSCycles:    res.MethodCycles[costmodel.KLSS],
		PhaseCycles:   res.PhaseCycles,
		TotalModOps:   res.Ops.Total(),
		KernelNTT:     res.Ops.NTT,
		KernelBConv:   res.Ops.BConv,
		KernelKeyMult: res.Ops.KeyMult,
		KernelOther:   res.Ops.Other,
	}, nil
}

// PlanWorkload runs the Aether analysis alone and returns the configuration
// file (serialisable via its Save method).
func PlanWorkload(w Workload, acc Accelerator) (*aether.ConfigFile, error) {
	an, err := aether.NewAnalyzer(costmodel.SetII(), acc.cfg)
	if err != nil {
		return nil, err
	}
	plan, _, err := an.Analyze(w.tr)
	return plan, err
}

// PublishedBaselines exposes the prior-accelerator reference rows the paper
// compares against (Tables 4-6).
type PublishedBaseline = baselines.Published

// Published returns the published baseline rows.
func Published() []PublishedBaseline { return baselines.All() }
