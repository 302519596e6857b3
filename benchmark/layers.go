package main

import (
	"fmt"

	fast "github.com/fastfhe/fast"
)

// The layers methods compose the per-layer probes for each workload. Probes
// run at the owning workload's parameter point; a metric no probe of a
// workload sets stays unset and is reported as 0 (not applicable).

// checkProbePoint fails a traced run whose kernel probes ran at another
// parameter point than the workload does. contextPoint and bootstrapPoint
// repeat by hand what fast.compileParameters and fast.NewBootstrapContext
// compile, and nothing else ties the two together: when the library changes
// its compilation, the ring/rns/ckks/costmodel numbers would go on measuring
// the old point while the workloads move. What the public API shows of the
// compiled point — level count, slots, KLSS keys, the security estimate
// (total modulus bits, sparse secret) and a fresh ciphertext's wire size
// (N x limbs) — must equal the probe instance's. (Below log_n 10, toy sizes
// only, the security estimate reads 0 and modulus width goes unchecked.)
func checkProbePoint(k *kernelEnv, m metricSet, ctx *fast.Context) error {
	fresh, err := ctx.Encrypt(make([]complex128, ctx.Slots()))
	if err != nil {
		return err
	}
	wire, err := serialize(fresh)
	if err != nil {
		return err
	}
	type point struct {
		maxLevel, slots int
		klss            bool
		security        float64
		ctBytes         float64
	}
	probe := point{k.params.MaxLevel(), k.params.Slots(), k.params.SupportsKLSS(), k.params.SecurityEstimate(), m["ckks.ct_kb"] * 1024}
	own := point{ctx.MaxLevel(), ctx.Slots(), ctx.SupportsKLSS(), ctx.SecurityEstimate(), float64(len(wire))}
	if probe != own {
		return fmt.Errorf("kernel probes ran at %+v, the workload's context is at %+v: contextPoint/bootstrapPoint no longer mirror the library's parameter compilation", probe, own)
	}
	return nil
}

// serveLayers is shared by the two serving workloads: the kernel and public-
// API probes at the session's parameter point, fastd's own counters over the
// traced window, the in-process admission overhead, the HTTP probes against
// the running daemon, and last — they replace the daemon — restart and
// failover.
func serveLayers(tr *tracer, rig *serveRig, all []*window, tw *window, m metricSet) error {
	env := rig.env
	reps := env.size.probeReps
	cfg := serveConfig(env.size, env.seed+1000)
	plain := seededVector(env.rng(8), 1<<(cfg.LogN-1))
	k, err := kernelLayers(tr, reps, contextPoint(cfg, 1), m)
	if err != nil {
		return err
	}
	fe, err := fastLayers(tr, reps, cfg, 1, fanoutProgram(), plain, m)
	if err != nil {
		return err
	}
	if err := checkProbePoint(k, m, fe.ctx); err != nil {
		return err
	}
	if err := aetherLayers(tr, reps, k, fe.plan, m); err != nil {
		return err
	}
	scrapedLayers(all, tw, m)
	if err := inProcessServeLayers(tr, reps, m); err != nil {
		return err
	}
	if err := httpLayers(tr, rig, fe, cfg, plain, m); err != nil {
		return err
	}
	return restartLayers(tr, rig, m)
}

func (s *serveHot) layers(tr *tracer, all []*window, tw *window, m metricSet) error {
	rig := &serveRig{env: s.env, d: &s.d, stateDir: s.stateDir, flags: s.daemonFlags(), live: s.targets[:1]}
	return serveLayers(tr, rig, all, tw, m)
}

func (s *serveChurn) layers(tr *tracer, all []*window, tw *window, m metricSet) error {
	rig := &serveRig{env: s.env, d: &s.d, stateDir: s.stateDir, flags: s.daemonFlags(), live: s.slots[:]}
	return serveLayers(tr, rig, all, tw, m)
}

func (l *libDeep) layers(tr *tracer, _ []*window, _ *window, m metricSet) error {
	reps := l.env.size.probeReps
	k, err := kernelLayers(tr, reps, contextPoint(l.cfg, 2), m)
	if err != nil {
		return err
	}
	if err := checkProbePoint(k, m, l.ctx); err != nil {
		return err
	}
	fe, err := fastLayers(tr, reps, l.cfg, 2, deepProgram(), l.plain, m)
	if err != nil {
		return err
	}
	return aetherLayers(tr, reps, k, fe.plan, m)
}

func (l *libBootstrap) layers(tr *tracer, _ []*window, tw *window, m metricSet) error {
	reps := l.env.size.probeReps
	k, err := kernelLayers(tr, reps, bootstrapPoint(l.env.size.bootLogN, l.env.seed+1000), m)
	if err != nil {
		return err
	}
	if err := checkProbePoint(k, m, l.ctx.Context); err != nil {
		return err
	}
	if err := bootstrapLayers(tr, reps, k, m); err != nil {
		return err
	}
	m["ckks.bootstrap_ms"] = median(tw.latMS) // the traced window's operations are the probe
	p := newProber(tr, reps, "probe.fast")
	m["fast.newcontext_ms"] = p.medianOf("fast.newbootstrapcontext", p.few(), false, func() {
		_, err = fast.NewBootstrapContext(fast.BootstrapContextConfig{LogN: l.env.size.bootLogN, Seed: l.env.seed + 1000})
	}) / 1e6
	p.done()
	if err != nil {
		return err
	}
	return simLayers(tr, reps, m)
}
