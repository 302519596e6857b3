// Package sim is the kernel-level performance simulator of the FAST
// reproduction (paper §6.1): it executes an FHE operation trace against an
// accelerator configuration, translating every operation into
// hardware-aligned kernels (NTT, BConv, KeyMult, element-wise) via the cost
// model, mapping each kernel to its component (NTTU, BConvU, KMU, AutoU,
// AEM), overlapping evaluation-key HBM traffic with compute through the
// Hemera manager, and accumulating per-component busy time, stalls, energy
// and EDP.
//
// Fidelity note: this is an analytic pipeline model, not an RTL simulator.
// Stage throughputs derive from the paper's microarchitecture (ten-step
// NTTU, 256-wide systolic BConvU, 3x256 KMU) and an inter-kernel overlap
// efficiency calibrated so the SHARP-class baseline lands at its published
// bootstrapping latency; every comparative claim (who wins, by what factor)
// then emerges from the model rather than being hard-coded.
package sim

import (
	"fmt"

	"github.com/fastfhe/fast/internal/aether"
	"github.com/fastfhe/fast/internal/arch"
	"github.com/fastfhe/fast/internal/costmodel"
	"github.com/fastfhe/fast/internal/hemera"
	"github.com/fastfhe/fast/internal/obs"
	"github.com/fastfhe/fast/internal/trace"
)

// muls-per-lane-per-cycle of each compute component at the base (one 36-bit
// product per multiplier per cycle) configuration. NTTU lanes feed
// log(sqrt[4]N)-deep butterfly columns (ten-step NTT), BConvU lanes are MAC
// columns of the two systolic arrays, KMU lanes carry the width-3 gadget
// array.
var unitFactor = map[arch.Component]float64{
	arch.NTTU:   3,
	arch.BConvU: 4,
	arch.KMU:    1,
	arch.AEM:    4,
}

// bottleneckEff models dependency stalls on an operation's bottleneck
// component: the units run concurrently (the NTTU of one kernel overlaps the
// BConvU of the next), so an operation's compute time is its slowest
// component's busy time divided by this efficiency. Calibrated against the
// published SHARP bootstrapping latency (see package comment).
const bottleneckEff = 0.72

// pipelineFillCycles is the fixed fill/drain latency every operation pays
// regardless of lane count: the ten-step NTTU, the systolic arrays and the
// inter-cluster NoC all have depth that does not shrink when clusters are
// added, which is why the paper's 8-cluster variants scale by ~1.7x rather
// than 2x (Fig. 13(b)) and report extra pipeline stalls.
const pipelineFillCycles = 200.0

// Result is the outcome of one simulation.
type Result struct {
	Config arch.Config
	Trace  string

	Cycles float64
	TimeMS float64

	ComponentBusy map[arch.Component]float64
	TransferCy    float64 // HBM busy cycles (evaluation-key traffic)
	StallCy       float64 // transfer cycles not hidden behind compute
	EvkBytes      int64
	PoolHits      int
	PoolMisses    int
	Prefetched    int

	Ops costmodel.Breakdown // total kernel work (36-bit-equivalent muls)

	// MethodCycles splits key-switch compute cycles by method (Fig. 10).
	MethodCycles map[costmodel.Method]float64
	// PhaseCycles splits total op cycles by trace phase.
	PhaseCycles map[string]float64

	EnergyJ   float64
	AvgPowerW float64
	EDP       float64 // energy-delay product (J*s)
}

// Utilization returns busy/total for a component.
func (r *Result) Utilization(c arch.Component) float64 {
	if r.Cycles == 0 {
		return 0
	}
	if c == arch.HBM {
		return r.TransferCy / r.Cycles
	}
	return r.ComponentBusy[c] / r.Cycles
}

// Simulator executes traces.
type Simulator struct {
	params costmodel.Params
	cfg    arch.Config
	plan   *aether.ConfigFile

	// o is the optional observability substrate (see SetObserver); nil
	// disables metric publication and synthetic-trace emission.
	o *obs.Observer
}

// New builds a simulator. plan may be nil (every key-switch defaults to
// non-hoisted hybrid, the OneKSW baseline).
func New(params costmodel.Params, cfg arch.Config, plan *aether.ConfigFile) (*Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Simulator{params: params, cfg: cfg, plan: plan}, nil
}

// throughput returns equivalent muls/cycle of a component for a kernel
// width: multiplier units per lane (unitFactor) times the lane count times
// the per-unit equivalent rate of the ALU design (2 for TBM, 1 for a plain
// matched-width unit, 0.5 for Booth-emulated 60-bit on a 36-bit unit).
func (s *Simulator) throughput(c arch.Component, bits int) float64 {
	perUnit := s.cfg.EquivMuls36PerCycle(bits) / float64(s.cfg.Lanes())
	return unitFactor[c] * float64(s.cfg.Lanes()) * perUnit
}

// opWork maps one trace op (under a decision) to kernel work, key traffic
// and bookkeeping.
type opWork struct {
	bd        costmodel.Breakdown
	bits      int
	method    costmodel.Method
	keyIDs    []string
	keyBytes  int64
	autoElems float64 // automorphism traffic (AutoU, no multiplies)
}

// classify maps one trace op to kernel work, key traffic and bookkeeping.
// For key-switching ops d is the op's Aether decision; other kinds ignore
// it.
func (s *Simulator) classify(op trace.Op, d aether.Decision) opWork {
	n := float64(s.params.N())
	k := float64(op.Level + 1)
	w := opWork{bits: 36, method: costmodel.Hybrid}
	switch op.Kind {
	case trace.HMult:
		w.method = d.Method
		w.bits = d.Method.KernelBits()
		w.bd = s.params.KeySwitch(d.Method, op.Level, 1)
		w.bd.Other += 4 * k * n // tensor products
		w.keyIDs = []string{op.KeyID(d.Method.String(), 0)}
		w.keyBytes = s.params.MovedEvkBytes(d.Method, op.Level)
	case trace.HRot:
		w.method = d.Method
		w.bits = d.Method.KernelBits()
		h := max(d.Hoist, 1)
		groups := (op.HoistCount() + h - 1) / h
		w.bd = s.params.KeySwitch(d.Method, op.Level, h).Scale(float64(groups))
		for _, r := range op.Rotations {
			w.keyIDs = append(w.keyIDs, op.KeyID(d.Method.String(), r))
		}
		w.keyBytes = s.params.MovedEvkBytes(d.Method, op.Level)
		w.autoElems = float64(op.HoistCount()) * k * n
	case trace.PMult, trace.CMult:
		w.bd.Other = 2 * k * n
	case trace.PAdd, trace.HAdd:
		w.bd.Other = k * n
	case trace.Rescale:
		w.bd.NTT = (4*k - 2) * n / 2 * float64(s.params.LogN)
		w.bd.Other = 2 * k * n
	case trace.ModRaise:
		w.bd.BConv = 2 * 2 * k * n // base extension from the exhausted limbs
		w.bd.NTT = 2 * k * n / 2 * float64(s.params.LogN)
	}
	return w
}

// Run executes the trace and returns the metrics.
func (s *Simulator) Run(tr *trace.Trace) (*Result, error) {
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	res := &Result{
		Config:        s.cfg,
		Trace:         tr.Name,
		ComponentBusy: map[arch.Component]float64{},
		MethodCycles:  map[costmodel.Method]float64{},
		PhaseCycles:   map[string]float64{},
	}
	hem := hemera.NewManager(int64(s.cfg.ReservedEvkMB*(1<<20)), s.plan)
	hem.DisablePrefetch = s.cfg.DisablePrefetch

	var otr *obs.Tracer
	if s.o != nil {
		hem.SetObserver(s.o)
		if otr = s.o.Tr(); otr != nil {
			s.traceSetup(otr)
		}
	}

	computeCy := 0.0
	for idx, op := range tr.Ops {
		d := s.plan.DecisionFor(idx)
		w := s.classify(op, d)
		res.Ops = res.Ops.Add(w.bd)

		// Kernel times on their components.
		tNTT := w.bd.NTT / s.throughput(arch.NTTU, w.bits)
		tBC := w.bd.BConv / s.throughput(arch.BConvU, w.bits)
		tKM := w.bd.KeyMult / s.throughput(arch.KMU, w.bits)
		tOth := w.bd.Other / s.throughput(arch.AEM, w.bits)
		// AutoU permutes lanes-wide words (512 at 36-bit, 256 at 60-bit).
		autoPerCycle := float64(s.cfg.Lanes())
		if w.bits == 36 {
			autoPerCycle *= 2
		}
		tAuto := w.autoElems / autoPerCycle

		res.ComponentBusy[arch.NTTU] += tNTT
		res.ComponentBusy[arch.BConvU] += tBC
		res.ComponentBusy[arch.KMU] += tKM
		res.ComponentBusy[arch.AEM] += tOth
		res.ComponentBusy[arch.AutoU] += tAuto

		compute := tNTT
		for _, t := range []float64{tBC, tKM, tOth, tAuto} {
			if t > compute {
				compute = t
			}
		}
		compute = compute/bottleneckEff + pipelineFillCycles

		// Evaluation-key traffic through Hemera.
		var transfer float64
		prefetchedOp := true
		if op.Kind.NeedsKeySwitch() {
			for _, id := range w.keyIDs {
				t := hem.RequestKey(id, w.keyBytes, op.Level, d)
				if t.Hit {
					res.PoolHits++
					continue
				}
				res.PoolMisses++
				if t.Prefetched {
					res.Prefetched++
				} else {
					prefetchedOp = false
				}
				res.EvkBytes += t.Bytes
				transfer += float64(t.Bytes) / s.cfg.BytesPerCycle()
			}
		}
		if otr != nil {
			s.traceOp(otr, idx, op, w, computeCy, compute, transfer,
				map[arch.Component]float64{
					arch.NTTU: tNTT, arch.BConvU: tBC, arch.KMU: tKM,
					arch.AEM: tOth, arch.AutoU: tAuto,
				})
		}
		res.TransferCy += transfer
		computeCy += compute
		if transfer > 0 && !prefetchedOp {
			// A transfer the history recorder did not predict cannot start
			// early; the part that does not fit under this op's own compute
			// stalls the pipeline.
			if transfer > compute {
				res.StallCy += transfer - compute
			}
		}
		if op.Kind.NeedsKeySwitch() {
			res.MethodCycles[w.method] += compute
		}
		if op.Phase != "" {
			res.PhaseCycles[op.Phase] += compute
		}
	}

	// Two-resource pipeline: Hemera prefetching lets key transfers stream
	// during earlier compute, so the runtime is bounded by the slower of the
	// compute pipeline and the HBM channel, plus the unpredicted stalls.
	res.Cycles = computeCy
	if res.TransferCy > res.Cycles {
		res.Cycles = res.TransferCy
	}
	res.Cycles += res.StallCy
	res.TimeMS = res.Cycles / (s.cfg.ClockGHz * 1e6)
	s.energy(res)
	if s.o != nil {
		s.publish(tr, res)
	}
	return res, nil
}

// energy integrates per-component activity against the area/power budget:
// dynamic energy tracks busy cycles at peak component power, static/idle
// energy charges the memory system (register file, HBM, NoC) for the whole
// runtime plus a 10% leakage floor on compute.
func (s *Simulator) energy(res *Result) {
	seconds := res.TimeMS / 1e3
	if res.Cycles == 0 {
		return
	}
	var watts float64
	for _, c := range []arch.Component{arch.NTTU, arch.BConvU, arch.KMU, arch.AutoU, arch.AEM} {
		util := res.ComponentBusy[c] / res.Cycles
		p := s.cfg.ComponentBudget(c).PowerW
		// 5% leakage floor plus dynamic power at a 0.5 switching-activity
		// derating of the synthesis peak.
		watts += p * (0.05 + 0.5*util)
	}
	for _, c := range []arch.Component{arch.RegisterFile, arch.NoC} {
		watts += s.cfg.ComponentBudget(c).PowerW * 0.6
	}
	watts += s.cfg.ComponentBudget(arch.HBM).PowerW * (0.2 + 0.6*res.TransferCy/res.Cycles)
	res.AvgPowerW = watts
	res.EnergyJ = watts * seconds
	res.EDP = res.EnergyJ * seconds
}

// Mode selects how key-switching is scheduled, the plans of the
// execution-time breakdown study (Fig. 10).
type Mode int

const (
	// ModeAuto follows the accelerator's feature flags.
	ModeAuto Mode = iota
	// ModeOneKSW forces non-hoisted hybrid everywhere.
	ModeOneKSW
	// ModeHoisting enables hoisting but keeps the hybrid method.
	ModeHoisting
	// ModeAether enables the full dual-method selection.
	ModeAether
)

// modeNames are the command-line plan names; ModeAuto's is empty.
var modeNames = [...]string{ModeAuto: "", ModeOneKSW: "oneksw", ModeHoisting: "hoisting", ModeAether: "aether"}

// ParseMode maps a command-line plan name to its Mode.
func ParseMode(name string) (Mode, error) {
	for m, n := range modeNames {
		if n == name {
			return Mode(m), nil
		}
	}
	return 0, fmt.Errorf("unknown plan %q", name)
}

// Plan runs the Aether analysis of tr for cfg under mode, which sets the
// configuration's KLSS and hoisting flags for the analysis only. It returns
// the configuration file and the Methods Candidate Table behind it.
func Plan(params costmodel.Params, cfg arch.Config, tr *trace.Trace, mode Mode) (*aether.ConfigFile, []aether.MCTEntry, error) {
	switch mode {
	case ModeOneKSW:
		cfg.EnableKLSS, cfg.EnableHoisting = false, false
	case ModeHoisting:
		cfg.EnableKLSS, cfg.EnableHoisting = false, true
	case ModeAether:
		cfg.EnableKLSS, cfg.EnableHoisting = true, true
	case ModeAuto:
	default:
		return nil, nil, fmt.Errorf("sim: unknown plan mode %d", mode)
	}
	an, err := aether.NewAnalyzer(params, cfg)
	if err != nil {
		return nil, nil, err
	}
	return an.Analyze(tr)
}

// Simulate plans tr for cfg under mode and runs it, publishing the run into
// o when it is non-nil (see SetObserver).
func Simulate(params costmodel.Params, cfg arch.Config, tr *trace.Trace, mode Mode, o *obs.Observer) (*Result, error) {
	plan, _, err := Plan(params, cfg, tr, mode)
	if err != nil {
		return nil, err
	}
	s, err := New(params, cfg, plan)
	if err != nil {
		return nil, err
	}
	s.SetObserver(o)
	return s.Run(tr)
}
