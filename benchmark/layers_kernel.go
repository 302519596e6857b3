package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	fast "github.com/fastfhe/fast"
	"github.com/fastfhe/fast/internal/ckks"
	"github.com/fastfhe/fast/internal/costmodel"
	"github.com/fastfhe/fast/internal/obs"
	"github.com/fastfhe/fast/internal/ring"
	"github.com/fastfhe/fast/internal/rns"
)

// prober times calls into one layer's public functions. Each timed call is a
// span under the group's span; a metric is the median of the timed calls.
type prober struct {
	tr     *tracer
	reps   int
	parent int
}

func newProber(tr *tracer, reps int, group string) *prober {
	return &prober{tr: tr, reps: reps, parent: tr.start(group, -1, -1)}
}

func (p *prober) done() { p.tr.end(p.parent) }

// probeBudget caps the time one probe spends repeating its call: a slow call
// (a 100 ms Execute) is repeated fewer than reps times, but at least minReps.
const (
	probeBudget = 1500 * time.Millisecond
	minReps     = 5
)

// medianNS is the median duration of up to reps calls of fn, in nanoseconds,
// after one untimed call that fills pools and lazy tables.
func (p *prober) medianNS(name string, fn func()) float64 {
	return p.medianOf(name, p.reps, true, fn)
}

// medianOf is medianNS with an explicit call count and optional warm call,
// for operations too slow to repeat reps times (key generation, snapshots).
func (p *prober) medianOf(name string, n int, warm bool, fn func()) float64 {
	if warm {
		fn()
	}
	ns := make([]float64, 0, n)
	start := time.Now()
	for i := 0; i < n; i++ {
		if i >= minReps && time.Since(start) > probeBudget {
			break
		}
		ns = append(ns, p.tr.timed(name, p.parent, fn))
	}
	return median(ns)
}

// few is the call count for slow probes: a fifth of reps, at least two.
func (p *prober) few() int { return max(2, p.reps/5) }

// paramPoint is a workload's CKKS parameter point as the kernel probes need
// it: the literal (mirroring what the public constructors compile — see
// fast.compileParameters and fast.NewBootstrapContext), the key set the
// workload generates, and its per-op limb fan-out.
type paramPoint struct {
	lit         ckks.ParametersLiteral
	rotations   []int
	conjugation bool
	klss        bool
	parallelism int
	bootstrap   bool
}

// contextPoint mirrors fast.compileParameters for a ContextConfig.
func contextPoint(cfg fast.ContextConfig, parallelism int) paramPoint {
	logQ := make([]int, cfg.Levels+1)
	logQ[0] = min(cfg.LogScale+14, 55)
	for i := 1; i < len(logQ); i++ {
		logQ[i] = cfg.LogScale
	}
	lit := ckks.ParametersLiteral{
		LogN: cfg.LogN, LogSlots: cfg.LogN - 1, LogQ: logQ, LogP: []int{logQ[0], logQ[0]},
		LogScale: cfg.LogScale, Alpha: 2, Seed: cfg.Seed,
	}
	if cfg.EnableKLSS {
		lit.LogT, lit.AlphaT = []int{60, 60}, 2
	}
	return paramPoint{lit: lit, rotations: cfg.Rotations, conjugation: cfg.Conjugation, klss: cfg.EnableKLSS, parallelism: parallelism}
}

// bootstrapPoint mirrors fast.NewBootstrapContext's defaults.
func bootstrapPoint(logN int, seed int64) paramPoint {
	logQ := make([]int, 25)
	logQ[0] = 50
	for i := 1; i < len(logQ); i++ {
		logQ[i] = 40
	}
	return paramPoint{
		lit: ckks.ParametersLiteral{
			LogN: logN, LogSlots: 4, LogQ: logQ, LogP: []int{50, 50, 50},
			LogScale: 40, Alpha: 3, Seed: seed, SecretHammingWeight: 16,
		},
		conjugation: true, parallelism: 1, bootstrap: true,
	}
}

// kernelEnv is a probe-owned CKKS instance at a workload's parameter point.
type kernelEnv struct {
	pt     paramPoint
	params *ckks.Parameters
	ob     *obs.Observer
	enc    *ckks.Encoder
	sk     *ckks.SecretKey
	keys   *ckks.EvaluationKeySet
	eval   *ckks.Evaluator
	encr   *ckks.Encryptor
	decr   *ckks.Decryptor
	ct     *ckks.Ciphertext // a fresh top-level encryption
	values []complex128
}

func (k *kernelEnv) methods() []ckks.KeySwitchMethod {
	if k.pt.klss {
		return []ckks.KeySwitchMethod{ckks.Hybrid, ckks.KLSS}
	}
	return []ckks.KeySwitchMethod{ckks.Hybrid}
}

// kernelLayers builds a CKKS instance at one parameter point and measures
// ckks, costmodel, ring and rns on it. It returns the instance for the
// workload-specific probes that follow.
func kernelLayers(tr *tracer, reps int, pt paramPoint, m metricSet) (*kernelEnv, error) {
	k := &kernelEnv{pt: pt, ob: obs.New()}
	var err error
	if k.params, err = ckks.NewParameters(pt.lit); err != nil {
		return nil, err
	}
	if pt.bootstrap {
		k.pt.rotations = ckks.BootstrapRotations(k.params)
	}
	rng := rand.New(rand.NewSource(pt.lit.Seed))

	// ---- ckks: key generation (the workload's full key set) ----
	p := newProber(tr, reps, "probe.ckks")
	m["ckks.keygen_ms"] = p.medianOf("ckks.keygen", p.few(), false, func() {
		kgen := ckks.NewKeyGenerator(k.params)
		k.sk = kgen.GenSecretKey()
		pk := kgen.GenPublicKey(k.sk)
		k.encr = ckks.NewEncryptor(k.params, pk)
		k.keys, err = kgen.GenEvaluationKeySet(k.sk, k.methods(), k.pt.rotations, pt.conjugation)
	}) / 1e6
	if err != nil {
		return nil, err
	}
	k.enc = ckks.NewEncoder(k.params)
	k.decr = ckks.NewDecryptor(k.params, k.sk)
	if k.eval, err = ckks.NewEvaluatorOptions(k.params, k.keys, ckks.EvaluatorOptions{Parallelism: pt.parallelism, Observer: k.ob}); err != nil {
		return nil, err
	}
	k.values = seededVector(rng, k.params.Slots())

	// ---- ckks: client side and wire ----
	var pt0 *ckks.Plaintext
	m["ckks.encode_ms"] = p.medianNS("ckks.encode", func() { pt0, err = k.enc.Encode(k.values) }) / 1e6
	if err != nil {
		return nil, err
	}
	m["ckks.encrypt_ms"] = p.medianNS("ckks.encrypt", func() { k.ct, err = k.encr.Encrypt(pt0) }) / 1e6
	if err != nil {
		return nil, err
	}
	m["ckks.decrypt_ms"] = p.medianNS("ckks.decrypt", func() { k.enc.Decode(k.decr.Decrypt(k.ct)) }) / 1e6
	var wire bytes.Buffer
	m["ckks.ct_marshal_ms"] = p.medianNS("ckks.ct_marshal", func() {
		wire.Reset()
		err = k.ct.Serialize(&wire)
	}) / 1e6
	if err != nil {
		return nil, err
	}
	m["ckks.ct_kb"] = float64(wire.Len()) / 1024
	m["ckks.ct_unmarshal_ms"] = p.medianNS("ckks.ct_unmarshal", func() {
		_, err = ckks.ReadCiphertext(bytes.NewReader(wire.Bytes()), k.params)
	}) / 1e6
	if err != nil {
		return nil, err
	}

	// ---- ckks: key-switch phases at the top level ----
	top := k.params.MaxLevel()
	ks, err := ckks.NewKeySwitcherWorkers(k.params, ckks.Hybrid, pt.parallelism)
	if err != nil {
		return nil, err
	}
	ks.SetObserver(k.ob)
	relin, err := k.keys.RelinKey(ckks.Hybrid)
	if err != nil {
		return nil, err
	}
	m["ckks.ks_modup_ms"] = p.medianNS("ckks.ks_decompose", func() {
		d, e := ks.Decompose(k.ct.C1, top)
		if err = e; e == nil {
			ks.Release(d)
		}
	}) / 1e6
	if err != nil {
		return nil, err
	}
	d, err := ks.Decompose(k.ct.C1, top)
	if err != nil {
		return nil, err
	}
	// KeySwitcher.KeyMult includes the ModDown that follows the key product;
	// the existing moddown_ns histogram splits the two.
	mdHist := k.ob.Reg().Histogram("ckks.keyswitch.hybrid.moddown_ns")
	mdCount0, mdSum0 := mdHist.Count(), mdHist.Sum()
	keyMultCall := p.medianNS("ckks.ks_keymult", func() { _, _, err = ks.KeyMult(d, relin, top) }) / 1e6
	ks.Release(d)
	if err != nil {
		return nil, err
	}
	if n := mdHist.Count() - mdCount0; n > 0 {
		m["ckks.ks_moddown_ms"] = float64(mdHist.Sum()-mdSum0) / float64(n) / 1e6
	}
	m["ckks.ks_keymult_ms"] = keyMultCall - m["ckks.ks_moddown_ms"]
	switchNS := p.medianNS("ckks.ks_switch", func() { _, _, err = ks.Switch(k.ct.C1, relin, top) })
	if err != nil {
		return nil, err
	}
	m["ckks.ks_switch_ms"] = switchNS / 1e6
	if pt.klss {
		ksK, err := ckks.NewKeySwitcherWorkers(k.params, ckks.KLSS, pt.parallelism)
		if err != nil {
			return nil, err
		}
		relinK, err := k.keys.RelinKey(ckks.KLSS)
		if err != nil {
			return nil, err
		}
		m["ckks.ks_switch_klss_ms"] = p.medianNS("ckks.ks_switch_klss", func() { _, _, err = ksK.Switch(k.ct.C1, relinK, top) }) / 1e6
		if err != nil {
			return nil, err
		}
	}

	// ---- ckks: evaluator operations at the top level ----
	var prod *ckks.Ciphertext
	m["ckks.mul_ms"] = p.medianNS("ckks.mul", func() { prod, err = k.eval.MulRelinWith(k.ct, k.ct, ckks.Hybrid) }) / 1e6
	if err != nil {
		return nil, err
	}
	m["ckks.rescale_ms"] = p.medianNS("ckks.rescale", func() { _, err = k.eval.Rescale(prod) }) / 1e6
	if err != nil {
		return nil, err
	}
	rots := k.pt.rotations
	if len(rots) > 0 {
		m["ckks.rotate_ms"] = p.medianNS("ckks.rotate", func() { _, err = k.eval.RotateWith(k.ct, rots[0], ckks.Hybrid) }) / 1e6
		if err != nil {
			return nil, err
		}
	}
	if len(rots) >= 4 {
		m["ckks.rotate_hoisted4_ms"] = p.medianNS("ckks.rotate_hoisted4", func() {
			_, err = k.eval.RotateHoistedWith(k.ct, rots[:4], ckks.Hybrid)
		}) / 1e6
		if err != nil {
			return nil, err
		}
	}
	p.done()

	// ---- costmodel: the model's count for the key-switch just timed ----
	cm := costmodel.ForContext(k.params.LogN(), top)
	m["costmodel.ks_modops"] = cm.KeySwitch(costmodel.Hybrid, top, 1).Total()
	m["ckks.ns_per_modop"] = switchNS / m["costmodel.ks_modops"]

	ringLayers(tr, reps, k, m)
	if err := rnsLayers(tr, reps, k, m); err != nil {
		return nil, err
	}

	// Scratch-pool misses over every evaluator call above.
	snap := k.ob.Snapshot()
	if gets := snap.Counters["ring.pool.evaluator.gets"]; gets > 0 {
		m["ring.pool_miss_share"] = float64(snap.Counters["ring.pool.evaluator.misses"]) / float64(gets)
	}
	return k, nil
}

// ringLayers times one limb at the workload's N and top modulus.
func ringLayers(tr *tracer, reps int, k *kernelEnv, m metricSet) {
	p := newProber(tr, reps, "probe.ring")
	defer p.done()
	top := k.params.MaxLevel()
	rq := k.params.RingQ()
	tbl := rq.Tables[top]
	limb := append([]uint64(nil), k.ct.C1.Coeffs[top]...)
	m["ring.ntt_inv_us"] = p.medianNS("ring.ntt_inv", func() { tbl.Inverse(limb) }) / 1e3
	m["ring.ntt_fwd_us"] = p.medianNS("ring.ntt_fwd", func() { tbl.Forward(limb) }) / 1e3
	r1 := rq.AtLevel(0)
	a, b, out := r1.NewPoly(), r1.NewPoly(), r1.NewPoly()
	copy(a.Coeffs[0], k.ct.C0.Coeffs[0])
	copy(b.Coeffs[0], k.ct.C1.Coeffs[0])
	m["ring.mulcoeffs_us"] = p.medianNS("ring.mulcoeffs", func() { r1.MulCoeffs(a, b, out) }) / 1e3
}

// rnsLayers times basis conversion (one digit of α limbs to the rest of
// Q∪P), ModDown and Rescale at the top level.
func rnsLayers(tr *tracer, reps int, k *kernelEnv, m metricSet) error {
	p := newProber(tr, reps, "probe.rns")
	defer p.done()
	alpha := k.params.Alpha()
	qMod, pMod := k.params.RingQ().Moduli, k.params.RingP().Moduli
	ext, err := rns.NewExtender(qMod[:alpha], append(append([]ring.Modulus(nil), qMod[alpha:]...), pMod...))
	if err != nil {
		return err
	}
	n := k.params.N()
	rows := func(limbs int) [][]uint64 { return ring.NewPoly(n, limbs).Coeffs }
	full := rows(len(qMod) + len(pMod) - alpha)
	m["rns.convert_us"] = p.medianNS("rns.convert", func() { ext.Convert(k.ct.C1.Coeffs[:alpha], full) }) / 1e3
	md, err := rns.NewModDowner(qMod, pMod)
	if err != nil {
		return err
	}
	xP, outQ := rows(len(pMod)), rows(len(qMod))
	for j := range xP {
		// Any residues below the moduli will do: ModDown's cost does not
		// depend on the values.
		for i := range xP[j] {
			xP[j][i] = k.ct.C0.Coeffs[0][i] % pMod[j].Q
		}
	}
	m["rns.moddown_us"] = p.medianNS("rns.moddown", func() { md.ModDown(k.ct.C1.Coeffs, xP, outQ) }) / 1e3
	rs := rns.NewRescaler(qMod)
	outL := rows(len(qMod) - 1)
	m["rns.rescale_us"] = p.medianNS("rns.rescale", func() { rs.Rescale(k.ct.C1.Coeffs, outL) }) / 1e3
	return nil
}

// modUps is how many ModUps (either backend) the probe instance has run.
func (k *kernelEnv) modUps() uint64 {
	s := k.ob.Snapshot()
	return s.Histograms["ckks.keyswitch.hybrid.modup_ns"].Count + s.Histograms["ckks.keyswitch.klss.modup_ns"].Count
}

// site is one distinct key-switch site of a plan: what Aether decides on.
type site struct {
	op    string
	level int
	hoist int
}

// aetherLayers reports how Aether planned prog on ctx and whether the choice
// was the faster one: every distinct (op, level, hoist) site is run with both
// backends forced, and a site counts as regret when the method NOT chosen
// measures more than 5 % faster. It needs KLSS keys, so it reports nothing
// on a hybrid-only parameter point.
func aetherLayers(tr *tracer, reps int, k *kernelEnv, plan *fast.Plan, m metricSet) error {
	if !k.pt.klss {
		return nil
	}
	chosen := map[site]fast.Method{}
	seenGroup := map[int]bool{}
	sites, klss := 0, 0
	for _, d := range plan.Decisions() {
		if d.Op == "rotate" {
			if seenGroup[d.Group] {
				continue
			}
			seenGroup[d.Group] = true
		}
		sites++
		if d.Method == fast.KLSS {
			klss++
		}
		chosen[site{d.Op, d.Level, d.Hoist}] = d.Method
	}
	if sites == 0 {
		return nil
	}
	m["aether.klss_share"] = float64(klss) / float64(sites)

	p := newProber(tr, max(3, reps/4), "probe.aether")
	defer p.done()
	regret := 0
	for s, method := range chosen {
		ct := k.eval.DropLevel(k.ct, k.ct.Level-s.level)
		var err error
		run := func(mth ckks.KeySwitchMethod) float64 {
			name := fmt.Sprintf("aether.%s@%d.h%d.%s", s.op, s.level, s.hoist, mth)
			return p.medianNS(name, func() {
				switch s.op {
				case "mul":
					_, err = k.eval.MulRelinWith(ct, ct, mth)
				case "conjugate":
					_, err = k.eval.ConjugateWith(ct, mth)
				default:
					_, err = k.eval.RotateHoistedWith(ct, k.pt.rotations[:s.hoist], mth)
				}
			})
		}
		hy, kl := run(ckks.Hybrid), run(ckks.KLSS)
		if err != nil {
			return err
		}
		mine, other := hy, kl
		if method == fast.KLSS {
			mine, other = kl, hy
		}
		if other < mine*0.95 {
			regret++
		}
	}
	m["aether.regret_share"] = float64(regret) / float64(len(chosen))
	return nil
}

// bootstrapLayers measures the bootstrap-only ckks probes on the probe
// instance: one observed bootstrap for the exact ModUp count, a dense
// n-diagonal linear transform (the CoeffToSlot shape) and a degree-9
// polynomial evaluation (the EvalMod seed), both at the top level.
func bootstrapLayers(tr *tracer, reps int, k *kernelEnv, m metricSet) error {
	p := newProber(tr, reps, "probe.bootstrap")
	defer p.done()
	bt, err := ckks.NewBootstrapper(k.params, k.enc, k.eval, ckks.DefaultBootstrapParameters())
	if err != nil {
		return err
	}
	low := k.eval.DropLevel(k.ct, k.ct.Level)
	before := k.modUps()
	if _, err = bt.BootstrapCtx(context.Background(), low); err != nil {
		return err
	}
	m["ckks.keyswitch_per_op"] = float64(k.modUps() - before)

	n := k.params.Slots()
	rng := rand.New(rand.NewSource(k.pt.lit.Seed + 1))
	diags := make(map[int][]complex128, n)
	for d := 0; d < n; d++ {
		diags[d] = seededVector(rng, n)
	}
	lt, err := ckks.NewLinearTransform(k.enc, diags, k.params.MaxLevel(), k.params.Scale(), 0)
	if err != nil {
		return err
	}
	m["ckks.lintrans_ms"] = p.medianOf("ckks.lintrans", p.few(), true, func() { _, err = k.eval.LinearTransform(k.ct, lt) }) / 1e6
	if err != nil {
		return err
	}
	sine := ckks.Polynomial{Coeffs: make([]float64, 10)}
	for i := 1; i < 10; i += 2 {
		sine.Coeffs[i] = math.Pow(-1, float64(i/2)) / math.Gamma(float64(i+1))
	}
	m["ckks.polyeval_ms"] = p.medianOf("ckks.polyeval", p.few(), true, func() { _, err = k.eval.EvaluatePoly(k.ct, sine) }) / 1e6
	return err
}

// simLayers pins the cycle simulator's outputs: deterministic counts that
// change only when costmodel or aether change behaviour, plus the host time
// of one Simulate call.
func simLayers(tr *tracer, reps int, m metricSet) error {
	p := newProber(tr, reps, "probe.sim")
	defer p.done()
	var fastRep, sharpRep *fast.Report
	var err error
	m["sim.host_us"] = p.medianNS("sim.simulate", func() {
		fastRep, err = fast.Simulate(fast.BootstrapWorkload(), fast.FASTAccelerator(), fast.PlanAuto)
	}) / 1e3
	if err != nil {
		return err
	}
	if sharpRep, err = fast.Simulate(fast.BootstrapWorkload(), fast.SHARPAccelerator(), fast.PlanAuto); err != nil {
		return err
	}
	m["sim.bootstrap_ms"] = fastRep.TimeMS
	m["sim.speedup_vs_sharp"] = sharpRep.TimeMS / fastRep.TimeMS
	return nil
}
