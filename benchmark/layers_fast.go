package main

import (
	"bytes"
	"context"

	fast "github.com/fastfhe/fast"
)

// fastEnv is a probe-owned public-API context at a workload's configuration,
// observed so the exact ModUp count per operation can be read from the
// existing keyswitch histograms.
type fastEnv struct {
	ctx  *fast.Context
	ob   *fast.Observer
	in   *fast.Ciphertext
	prog *fast.Program
	plan *fast.Plan
}

func (f *fastEnv) inputs() map[string]*fast.Ciphertext {
	return map[string]*fast.Ciphertext{"x": f.in}
}

func (f *fastEnv) modUps() uint64 {
	s := f.ob.Metrics()
	return s.Histograms["ckks.keyswitch.hybrid.modup_ns"].Count + s.Histograms["ckks.keyswitch.klss.modup_ns"].Count
}

// fastLayers measures the public fast API at one configuration: context
// construction, planning, the three execution modes, and the session
// snapshot round trip — plus the cost model's unit count for the plan.
func fastLayers(tr *tracer, reps int, cfg fast.ContextConfig, parallelism int, prog *fast.Program, plain []complex128, m metricSet) (*fastEnv, error) {
	p := newProber(tr, reps, "probe.fast")
	defer p.done()
	f := &fastEnv{ob: fast.NewObserver(), prog: prog}
	opts := []fast.Option{fast.WithParallelism(parallelism), fast.WithObserver(f.ob)}
	var err error
	m["fast.newcontext_ms"] = p.medianOf("fast.newcontext", p.few(), false, func() {
		f.ctx, err = fast.NewContext(cfg, opts...)
	}) / 1e6
	if err != nil {
		return nil, err
	}
	if f.in, err = f.ctx.Encrypt(plain); err != nil {
		return nil, err
	}
	m["fast.plan_us"] = p.medianNS("fast.plan", func() { f.plan, err = f.ctx.Plan(prog, nil) }) / 1e3
	if err != nil {
		return nil, err
	}
	m["fast.plan_fingerprint_us"] = p.medianNS("fast.plan_fingerprint", func() { f.ctx.PlanFingerprint(prog, nil) }) / 1e3

	bg := context.Background()
	before := f.modUps()
	calls := 0
	execNS := p.medianNS("fast.execute", func() {
		_, err = f.ctx.Execute(bg, f.plan, f.inputs())
		calls++
	})
	if err != nil {
		return nil, err
	}
	m["ckks.keyswitch_per_op"] = float64(f.modUps()-before) / float64(calls)
	m["fast.execute_ms"] = execNS / 1e6
	seqNS := p.medianNS("fast.execute_sequential", func() { _, err = f.ctx.ExecuteSequential(bg, f.plan, f.inputs()) })
	if err != nil {
		return nil, err
	}
	m["fast.execute_sequential_ms"] = seqNS / 1e6
	m["fast.planner_speedup"] = seqNS / execNS
	// Four runs sharing one input: what cross-request coalescing could save.
	// With at most two connections fastd's batcher never sees two queued
	// requests, so this in-process ratio is the benchmark's only view of it.
	batchNS := p.medianNS("fast.execute_batch4", func() {
		runs := make([]*fast.Run, 4)
		for i := range runs {
			runs[i] = &fast.Run{Plan: f.plan, Inputs: f.inputs(), Ctx: bg}
		}
		f.ctx.ExecuteBatch(runs)
		for _, r := range runs {
			if r.Err != nil {
				err = r.Err
			}
		}
	})
	if err != nil {
		return nil, err
	}
	m["fast.execute_batch4_ms"] = batchNS / 1e6
	m["fast.batch4_speedup"] = 4 * execNS / batchNS

	m["costmodel.plan_units"] = f.plan.Units()
	m["costmodel.ns_per_unit"] = execNS / f.plan.Units()

	var snap bytes.Buffer
	m["fast.snapshot_write_ms"] = p.medianOf("fast.snapshot_write", p.few(), true, func() {
		snap.Reset()
		err = f.ctx.WriteSessionSnapshot(&snap, fast.SessionMeta{ID: "probe"})
	}) / 1e6
	if err != nil {
		return nil, err
	}
	m["fast.snapshot_mb"] = float64(snap.Len()) / (1 << 20)
	m["fast.snapshot_restore_ms"] = p.medianOf("fast.snapshot_restore", p.few(), true, func() {
		_, _, err = fast.ReadSessionSnapshot(bytes.NewReader(snap.Bytes()))
	}) / 1e6
	return f, err
}
