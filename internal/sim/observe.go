package sim

import (
	"github.com/fastfhe/fast/internal/arch"
	"github.com/fastfhe/fast/internal/costmodel"
	"github.com/fastfhe/fast/internal/obs"
	"github.com/fastfhe/fast/internal/trace"
)

// TracePIDSimulator is the Chrome-trace process id of the cycle simulator's
// synthetic (simulated-time) tracks — kept distinct from the functional
// evaluator's wall-clock pid so one trace file can carry both timelines.
const TracePIDSimulator = 2

// simTIDOps is the track showing the serialized operation pipeline; the
// compute components get one track each after it, and HBM transfers the last.
const (
	simTIDOps = iota
	simTIDNTTU
	simTIDBConvU
	simTIDKMU
	simTIDAutoU
	simTIDAEM
	simTIDHBM
)

// componentTID maps a compute component to its trace track.
var componentTID = map[arch.Component]int{
	arch.NTTU:   simTIDNTTU,
	arch.BConvU: simTIDBConvU,
	arch.KMU:    simTIDKMU,
	arch.AutoU:  simTIDAutoU,
	arch.AEM:    simTIDAEM,
}

// SetObserver attaches the observability substrate to subsequent Run calls:
// per-run summary gauges (cycles, stalls, per-component busy time, energy),
// per-OpKind dispatch counters, Aether decision tallies, Hemera pool
// counters, and — when the observer carries a tracer — a synthetic-timebase
// Chrome trace laying every op and its kernel occupancy on per-component
// tracks (simulated cycles converted to microseconds via the configuration
// clock). A nil observer detaches.
func (s *Simulator) SetObserver(o *obs.Observer) { s.o = o }

// cyclesToMicros converts simulated cycles to trace microseconds.
func (s *Simulator) cyclesToMicros(cy float64) float64 {
	return cy / (s.cfg.ClockGHz * 1e3)
}

// traceSetup emits the metadata naming the simulator's tracks.
func (s *Simulator) traceSetup(tr *obs.Tracer) {
	tr.SetProcessName(TracePIDSimulator, "fast simulator ("+s.cfg.Name+")")
	tr.SetThreadName(TracePIDSimulator, simTIDOps, "ops")
	for _, c := range []arch.Component{arch.NTTU, arch.BConvU, arch.KMU, arch.AutoU, arch.AEM} {
		tr.SetThreadName(TracePIDSimulator, componentTID[c], c.String())
	}
	tr.SetThreadName(TracePIDSimulator, simTIDHBM, "HBM")
}

// traceOp lays one executed op on the synthetic timeline: the op span on the
// ops track, each kernel's busy window on its component track, and the key
// transfer on the HBM track. startCy is the op's position on the serialized
// compute pipeline.
func (s *Simulator) traceOp(tr *obs.Tracer, idx int, op trace.Op, w opWork,
	startCy, computeCy, transferCy float64, busy map[arch.Component]float64) {
	args := obs.Args{}.Idx(idx).Level(op.Level)
	if op.Kind.NeedsKeySwitch() {
		args = args.Method(w.method.String())
		if h := op.HoistCount(); h > 1 {
			args = args.Hoist(h)
		}
	}
	if op.Phase != "" {
		args = args.Phase(op.Phase)
	}
	ts := s.cyclesToMicros(startCy)
	tr.Complete(op.Kind.String(), "sim.op", TracePIDSimulator, simTIDOps,
		ts, s.cyclesToMicros(computeCy), args)
	for c, cy := range busy {
		if cy <= 0 {
			continue
		}
		tr.Complete(op.Kind.String(), "sim.kernel", TracePIDSimulator, componentTID[c],
			ts, s.cyclesToMicros(cy), obs.Args{})
	}
	if transferCy > 0 {
		tr.Complete("evk", "sim.hbm", TracePIDSimulator, simTIDHBM,
			ts, s.cyclesToMicros(transferCy), obs.Args{}.Idx(idx))
	}
}

// publish mirrors one Run's Result into the metrics registry. Gauges are
// point-in-time (last run wins); dispatch and decision counters accumulate
// across runs.
func (s *Simulator) publish(tr *trace.Trace, res *Result) {
	reg := s.o.Reg()
	reg.FloatGauge("sim.cycles").Set(res.Cycles)
	reg.FloatGauge("sim.time_ms").Set(res.TimeMS)
	reg.FloatGauge("sim.stall_cycles").Set(res.StallCy)
	reg.FloatGauge("sim.transfer_cycles").Set(res.TransferCy)
	reg.FloatGauge("sim.energy_j").Set(res.EnergyJ)
	reg.FloatGauge("sim.avg_power_w").Set(res.AvgPowerW)
	reg.FloatGauge("sim.edp").Set(res.EDP)
	reg.Gauge("sim.evk_bytes").Set(res.EvkBytes)
	for c, cy := range res.ComponentBusy {
		reg.FloatGauge("sim.busy_cycles." + c.String()).Set(cy)
	}
	for m, cy := range res.MethodCycles {
		reg.FloatGauge("sim.method_cycles." + m.String()).Set(cy)
	}
	for phase, cy := range res.PhaseCycles {
		reg.FloatGauge("sim.phase_cycles." + phase).Set(cy)
	}
	for idx, op := range tr.Ops {
		reg.Counter("sim.op." + op.Kind.String() + ".count").Inc()
		if !op.Kind.NeedsKeySwitch() {
			continue
		}
		// Aether decision tallies: which backend the plan picked, and whether
		// it exploited hoisting.
		d := s.plan.DecisionFor(idx)
		if d.Method == costmodel.KLSS {
			reg.Counter("aether.decision.klss").Inc()
		} else {
			reg.Counter("aether.decision.hybrid").Inc()
		}
		if op.Kind == trace.HRot && d.Hoist > 1 {
			reg.Counter("aether.decision.hoisted").Inc()
		}
	}
}
