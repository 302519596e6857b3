package ckks

import (
	"context"
	"fmt"
	"math"
	"math/big"
	"sync"
	"sync/atomic"
	"time"

	"github.com/fastfhe/fast/internal/obs"
	"github.com/fastfhe/fast/internal/ring"
	"github.com/fastfhe/fast/internal/rns"
)

// Evaluator executes homomorphic operations. It owns one KeySwitcher per
// enabled backend and routes every HMult/HRot through a per-call backend
// choice (the ...With variants) or the stored default — the hook the Aether
// planner drives when it assigns a key-switching method per operation (paper
// §4.1).
//
// Concurrency: an Evaluator is safe for concurrent use from many goroutines.
// The default method is stored atomically, the switcher map is immutable
// after construction, and every hot path draws its scratch polynomials from
// sync.Pool-backed buffer pools sized off the parameter set instead of
// sharing per-evaluator temporaries.
type Evaluator struct {
	params      *Parameters
	keys        *EvaluationKeySet
	method      atomic.Int32
	switcher    map[KeySwitchMethod]*KeySwitcher
	rescaler    *rns.Rescaler
	parallelism int
	pool        *ring.PolyPool // ciphertext-shaped scratch (N x full Q chain)

	// iMonomial is X^(N/2) over the full chain, built by mulByI on first use.
	iOnce     sync.Once
	iMonomial *Plaintext

	// om holds the pre-resolved observability instruments; nil when the
	// evaluator is unobserved, in which case every hot path pays exactly one
	// pointer check and zero clock reads or allocations.
	om *evalObs
}

// EvaluatorOptions tunes evaluator construction.
type EvaluatorOptions struct {
	// Parallelism caps the number of worker goroutines the limb-level
	// kernels (NTT, BConv/ModUp, KeyMult, ModDown, Rescale) fan out to,
	// following ring.Workers semantics: 0 or 1 keeps every operation on the
	// calling goroutine (best aggregate throughput when many goroutines
	// evaluate concurrently), n >= 2 uses up to n workers per operation
	// (best single-operation latency), and negative values use GOMAXPROCS.
	Parallelism int

	// Observer attaches the observability substrate: per-OpKind×method
	// counters and latency histograms, key-switch phase timings, scratch
	// pool traffic, and (when the observer carries a tracer) wall-clock
	// spans for every operation. Nil disables instrumentation at zero
	// hot-path cost.
	Observer *obs.Observer
}

func (o EvaluatorOptions) workers() int {
	if o.Parallelism == 0 {
		return 1
	}
	return o.Parallelism
}

// NewEvaluator builds an evaluator over the given key set with serial
// limb-level kernels. The hybrid backend is always available; the KLSS
// backend is constructed when the parameter set carries an auxiliary chain.
func NewEvaluator(params *Parameters, keys *EvaluationKeySet) (*Evaluator, error) {
	return NewEvaluatorOptions(params, keys, EvaluatorOptions{})
}

// NewEvaluatorOptions builds an evaluator with explicit tuning options.
func NewEvaluatorOptions(params *Parameters, keys *EvaluationKeySet, opts EvaluatorOptions) (*Evaluator, error) {
	workers := opts.workers()
	ev := &Evaluator{
		params:      params,
		keys:        keys,
		switcher:    map[KeySwitchMethod]*KeySwitcher{},
		rescaler:    rns.NewRescaler(params.ringQ.Moduli),
		parallelism: workers,
		pool:        ring.NewPolyPool(params.N(), params.MaxLevel()+1),
	}
	ev.rescaler.Workers = workers
	ev.method.Store(int32(Hybrid))
	hy, err := NewKeySwitcherWorkers(params, Hybrid, workers)
	if err != nil {
		return nil, err
	}
	ev.switcher[Hybrid] = hy
	if params.SupportsKLSS() {
		kl, err := NewKeySwitcherWorkers(params, KLSS, workers)
		if err != nil {
			return nil, err
		}
		ev.switcher[KLSS] = kl
	}
	if opts.Observer != nil {
		ev.om = newEvalObs(opts.Observer)
		reg := opts.Observer.Reg()
		ev.pool.Instrument(
			reg.Counter("ring.pool.evaluator.gets"),
			reg.Counter("ring.pool.evaluator.puts"),
			reg.Counter("ring.pool.evaluator.misses"),
			reg.Gauge("ring.pool.evaluator.alloc_bytes"),
		)
		for _, sw := range ev.switcher {
			sw.SetObserver(opts.Observer)
		}
	}
	return ev, nil
}

// SetMethod selects the default key-switching backend for subsequent
// operations that do not pass one explicitly. The store is atomic, so
// SetMethod is safe to call concurrently — but operations already in flight
// keep the method they resolved at entry. Prefer the per-call ...With
// variants (or the fast package's WithMethod option) in concurrent code.
//
// Deprecated: use the ...With method variants for per-call selection.
func (ev *Evaluator) SetMethod(m KeySwitchMethod) error {
	if _, ok := ev.switcher[m]; !ok {
		return fmt.Errorf("ckks: evaluator has no %v backend: %w", m, ErrMethodUnavailable)
	}
	ev.method.Store(int32(m))
	return nil
}

// Method returns the current default key-switching backend.
func (ev *Evaluator) Method() KeySwitchMethod { return KeySwitchMethod(ev.method.Load()) }

// switcherFor resolves the switcher for a backend.
func (ev *Evaluator) switcherFor(m KeySwitchMethod) (*KeySwitcher, error) {
	sw, ok := ev.switcher[m]
	if !ok {
		return nil, fmt.Errorf("ckks: evaluator has no %v backend: %w", m, ErrMethodUnavailable)
	}
	return sw, nil
}

// alignLevels drops both ciphertexts to the lower of their levels.
func (ev *Evaluator) alignLevels(a, b *Ciphertext) (*Ciphertext, *Ciphertext) {
	if a.Level == b.Level {
		return a, b
	}
	if a.Level > b.Level {
		a = ev.DropLevel(a, a.Level-b.Level)
	} else {
		b = ev.DropLevel(b, b.Level-a.Level)
	}
	return a, b
}

// DropLevel returns ct truncated by n limbs (no scaling).
func (ev *Evaluator) DropLevel(ct *Ciphertext, n int) *Ciphertext {
	return &Ciphertext{
		C0:    ct.C0.Truncated(ct.Level + 1 - n).Clone(),
		C1:    ct.C1.Truncated(ct.Level + 1 - n).Clone(),
		Level: ct.Level - n,
		Scale: ct.Scale,
	}
}

// scalesMatch tolerates the relative drift rescaling introduces: each chain
// prime sits within ~2^-17 of the nominal scale, so two operands that took
// different paths through a deep circuit (e.g. the ~17-rescale EvalMod
// pipeline) can diverge by up to ~1e-4 in scale. The 1e-3 tolerance accepts
// that drift — introducing a value error bounded by 1e-3 of the magnitude,
// below the approximation error of the circuits that reach such depths —
// while still rejecting genuinely mismatched operands (which differ by the
// full Δ factor).
func scalesMatch(a, b float64) bool {
	return math.Abs(a-b) <= 1e-3*math.Max(a, b)
}

// Add returns a+b (HAdd). Levels are aligned; scales must match.
func (ev *Evaluator) Add(a, b *Ciphertext) (*Ciphertext, error) {
	var t0 time.Time
	if ev.om != nil {
		t0 = time.Now()
	}
	a, b = ev.alignLevels(a, b)
	if !scalesMatch(a.Scale, b.Scale) {
		return nil, fmt.Errorf("ckks: HAdd %w: %g vs %g", ErrScaleMismatch, a.Scale, b.Scale)
	}
	rq := ev.params.ringQ.AtLevel(a.Level)
	out := &Ciphertext{C0: rq.NewPoly(), C1: rq.NewPoly(), Level: a.Level, Scale: a.Scale}
	rq.Add(a.C0, b.C0, out.C0)
	rq.Add(a.C1, b.C1, out.C1)
	if ev.om != nil {
		ev.om.finishNoMethod(ev.om.hadd, "HAdd", a.Level, t0, nil)
	}
	return out, nil
}

// Sub returns a-b.
func (ev *Evaluator) Sub(a, b *Ciphertext) (*Ciphertext, error) {
	var t0 time.Time
	if ev.om != nil {
		t0 = time.Now()
	}
	a, b = ev.alignLevels(a, b)
	if !scalesMatch(a.Scale, b.Scale) {
		return nil, fmt.Errorf("ckks: HSub %w: %g vs %g", ErrScaleMismatch, a.Scale, b.Scale)
	}
	rq := ev.params.ringQ.AtLevel(a.Level)
	out := &Ciphertext{C0: rq.NewPoly(), C1: rq.NewPoly(), Level: a.Level, Scale: a.Scale}
	rq.Sub(a.C0, b.C0, out.C0)
	rq.Sub(a.C1, b.C1, out.C1)
	if ev.om != nil {
		ev.om.finishNoMethod(ev.om.hadd, "HAdd", a.Level, t0, nil)
	}
	return out, nil
}

// AddPlain returns ct+pt (PAdd).
func (ev *Evaluator) AddPlain(ct *Ciphertext, pt *Plaintext) (*Ciphertext, error) {
	var t0 time.Time
	if ev.om != nil {
		t0 = time.Now()
	}
	level := min(ct.Level, pt.Level)
	if !scalesMatch(ct.Scale, pt.Scale) {
		return nil, fmt.Errorf("ckks: PAdd %w: %g vs %g", ErrScaleMismatch, ct.Scale, pt.Scale)
	}
	rq := ev.params.ringQ.AtLevel(level)
	out := &Ciphertext{C0: rq.NewPoly(), C1: ct.C1.Truncated(level + 1).Clone(), Level: level, Scale: ct.Scale}
	rq.Add(ct.C0.Truncated(level+1), pt.Value.Truncated(level+1), out.C0)
	if ev.om != nil {
		ev.om.finishNoMethod(ev.om.padd, "PAdd", level, t0, nil)
	}
	return out, nil
}

// MulPlain returns ct*pt (PMult) without rescaling; the output scale is the
// product of the scales.
func (ev *Evaluator) MulPlain(ct *Ciphertext, pt *Plaintext) (*Ciphertext, error) {
	var t0 time.Time
	if ev.om != nil {
		t0 = time.Now()
	}
	level := min(ct.Level, pt.Level)
	rq := ev.params.ringQ.AtLevel(level)
	out := &Ciphertext{C0: rq.NewPoly(), C1: rq.NewPoly(), Level: level, Scale: ct.Scale * pt.Scale}
	rq.MulCoeffs(ct.C0.Truncated(level+1), pt.Value.Truncated(level+1), out.C0)
	rq.MulCoeffs(ct.C1.Truncated(level+1), pt.Value.Truncated(level+1), out.C1)
	if ev.om != nil {
		ev.om.finishNoMethod(ev.om.pmult, "PMult", level, t0, nil)
	}
	return out, nil
}

// MulConst returns ct * c for a real constant (CMult): the constant is
// quantised at the default scale, so the output scale is Scale*Δ and the
// caller typically rescales next.
func (ev *Evaluator) MulConst(ct *Ciphertext, c float64) (*Ciphertext, error) {
	var t0 time.Time
	if ev.om != nil {
		t0 = time.Now()
	}
	delta := ev.params.Scale()
	k, err := scaleToInt(c, delta)
	if err != nil {
		return nil, err
	}
	rq := ev.params.ringQ.AtLevel(ct.Level)
	out := &Ciphertext{C0: rq.NewPoly(), C1: rq.NewPoly(), Level: ct.Level, Scale: ct.Scale * delta}
	rq.MulScalarBigint(ct.C0, k, out.C0)
	rq.MulScalarBigint(ct.C1, k, out.C1)
	if ev.om != nil {
		ev.om.finishNoMethod(ev.om.cmult, "CMult", ct.Level, t0, nil)
	}
	return out, nil
}

// mulConstAtScale is MulConst with the constant quantised at constScale
// instead of Δ: the output scale is ct.Scale*constScale. Polynomial
// evaluation picks constScale per term so that every term of a sum lands on
// one identical scale; a caller that picks it so that c*constScale is an
// integer gets an exact multiplication whatever the size of c.
func (ev *Evaluator) mulConstAtScale(ct *Ciphertext, c, constScale float64) (*Ciphertext, error) {
	var t0 time.Time
	if ev.om != nil {
		t0 = time.Now()
	}
	k, err := scaleToInt(c, constScale)
	if err != nil {
		return nil, err
	}
	rq := ev.params.ringQ.AtLevel(ct.Level)
	out := &Ciphertext{C0: rq.NewPoly(), C1: rq.NewPoly(), Level: ct.Level, Scale: ct.Scale * constScale}
	rq.MulScalarBigint(ct.C0, k, out.C0)
	rq.MulScalarBigint(ct.C1, k, out.C1)
	if ev.om != nil {
		ev.om.finishNoMethod(ev.om.cmult, "CMult", ct.Level, t0, nil)
	}
	return out, nil
}

// mulByI returns i*ct at ct's level and scale. Every slot root ζ^(5^j) of
// X^N+1 satisfies (ζ^(5^j))^(N/2) = i, so the monomial X^(N/2) is the all-i
// vector exactly: multiplying by it costs one pointwise product, no level and
// no quantisation error.
func (ev *Evaluator) mulByI(ct *Ciphertext) (*Ciphertext, error) {
	ev.iOnce.Do(func() {
		rq := ev.params.ringQ
		mono := rq.NewPoly()
		for i := range mono.Coeffs {
			mono.Coeffs[i][ev.params.N()/2] = 1
		}
		rq.NTT(mono)
		ev.iMonomial = &Plaintext{Value: mono, Level: ev.params.MaxLevel(), Scale: 1}
	})
	return ev.MulPlain(ct, ev.iMonomial)
}

// AddConst returns ct + c for a real constant, at ct's scale.
func (ev *Evaluator) AddConst(ct *Ciphertext, c float64) (*Ciphertext, error) {
	k, err := scaleToInt(c, ct.Scale)
	if err != nil {
		return nil, err
	}
	rq := ev.params.ringQ.AtLevel(ct.Level)
	out := ct.CopyNew()
	// The constant lands on coefficient 0 in coefficient form, which is the
	// all-k vector in NTT form (the NTT of a constant is that constant).
	kModQ := ev.pool.Get(ct.Level + 1)
	defer ev.pool.Put(kModQ)
	tmp := new(big.Int)
	for i, m := range rq.Moduli {
		v := tmp.Mod(k, new(big.Int).SetUint64(m.Q)).Uint64()
		row := kModQ.Coeffs[i]
		for j := range row {
			row[j] = v
		}
	}
	rq.Add(out.C0, kModQ, out.C0)
	return out, nil
}

// MulRelin returns a*b with relinearisation through the default backend
// (HMult). No rescale is performed; the output scale is the product.
func (ev *Evaluator) MulRelin(a, b *Ciphertext) (*Ciphertext, error) {
	return ev.MulRelinWith(a, b, ev.Method())
}

// MulRelinWith is MulRelin with an explicit key-switching backend, enabling
// stateless per-call method selection under concurrency.
func (ev *Evaluator) MulRelinWith(a, b *Ciphertext, m KeySwitchMethod) (*Ciphertext, error) {
	return ev.mulRelin(nil, a, b, m)
}

// MulRelinCtx is MulRelinWith with cancellation: the relinearisation
// key-switch polls ctx at its limb-chunk boundaries and returns a typed
// ErrCanceled/ErrDeadline error (pooled scratch released) once ctx is done.
func (ev *Evaluator) MulRelinCtx(ctx context.Context, a, b *Ciphertext, m KeySwitchMethod) (*Ciphertext, error) {
	return ev.mulRelin(newCancelCheck(ctx), a, b, m)
}

func (ev *Evaluator) mulRelin(cc *cancelCheck, a, b *Ciphertext, m KeySwitchMethod) (*Ciphertext, error) {
	var t0 time.Time
	if ev.om != nil {
		t0 = time.Now()
	}
	if err := cc.err("HMult"); err != nil {
		return nil, err
	}
	sw, err := ev.switcherFor(m)
	if err != nil {
		return nil, err
	}
	rlk, err := ev.keys.RelinKey(m)
	if err != nil {
		return nil, err
	}
	a, b = ev.alignLevels(a, b)
	level := a.Level
	rq := ev.params.ringQ.AtLevel(level)

	// Tensor: (d0, d1, d2) = (a0*b0, a0*b1 + a1*b0, a1*b1). d0 and d1
	// escape into the output; the quadratic term d2 is scratch.
	d0, d1 := rq.NewPoly(), rq.NewPoly()
	d2 := ev.pool.Get(level + 1)
	defer ev.pool.Put(d2)
	rq.MulCoeffs(a.C0, b.C0, d0)
	rq.MulCoeffs(a.C0, b.C1, d1)
	rq.MulCoeffsThenAdd(a.C1, b.C0, d1)
	rq.MulCoeffs(a.C1, b.C1, d2)

	// Relinearise d2 with the s^2 key.
	e0, e1, err := sw.switchPoly(cc, d2, rlk, level)
	if err != nil {
		return nil, err
	}
	out := &Ciphertext{C0: d0, C1: d1, Level: level, Scale: a.Scale * b.Scale}
	rq.Add(out.C0, e0, out.C0)
	rq.Add(out.C1, e1, out.C1)
	if ev.om != nil {
		ev.om.finish(ev.om.hmult[methodIdx(m)], "HMult", m, level, t0, cc)
	}
	return out, nil
}

// Rescale divides the ciphertext by its top prime, dropping one level and
// dividing the scale accordingly.
func (ev *Evaluator) Rescale(ct *Ciphertext) (*Ciphertext, error) {
	return ev.rescaleCC(nil, ct)
}

// RescaleCtx is Rescale with a cancellation checkpoint at entry and between
// the two component passes.
func (ev *Evaluator) RescaleCtx(ctx context.Context, ct *Ciphertext) (*Ciphertext, error) {
	return ev.rescaleCC(newCancelCheck(ctx), ct)
}

func (ev *Evaluator) rescaleCC(cc *cancelCheck, ct *Ciphertext) (*Ciphertext, error) {
	var t0 time.Time
	if ev.om != nil {
		t0 = time.Now()
	}
	if ct.Level == 0 {
		return nil, fmt.Errorf("ckks: cannot rescale at level 0: %w", ErrLevelExhausted)
	}
	level := ct.Level
	rqIn := ev.params.ringQ.AtLevel(level)
	rqOut := ev.params.ringQ.AtLevel(level - 1)
	out := &Ciphertext{
		C0:    ring.NewPoly(ev.params.N(), level),
		C1:    ring.NewPoly(ev.params.N(), level),
		Level: level - 1,
		Scale: ct.Scale / float64(ev.params.qChain[level]),
	}
	tmp := ev.pool.Get(level + 1)
	defer ev.pool.Put(tmp)
	for _, pair := range []struct{ in, out ring.Poly }{{ct.C0, out.C0}, {ct.C1, out.C1}} {
		if err := cc.err("Rescale"); err != nil {
			return nil, err
		}
		tmp.CopyValues(pair.in)
		rqIn.INTTWorkers(tmp, ev.parallelism)
		ev.rescaler.Rescale(tmp.Coeffs, pair.out.Coeffs)
		rqOut.NTTWorkers(pair.out, ev.parallelism)
	}
	if ev.om != nil {
		ev.om.finishNoMethod(ev.om.rescale, "Rescale", level, t0, cc)
	}
	return out, nil
}

// Rotate returns ct with its slots cyclically rotated by r (HRot), via the
// default backend's Galois key.
func (ev *Evaluator) Rotate(ct *Ciphertext, r int) (*Ciphertext, error) {
	return ev.RotateWith(ct, r, ev.Method())
}

// RotateWith is Rotate with an explicit key-switching backend.
func (ev *Evaluator) RotateWith(ct *Ciphertext, r int, m KeySwitchMethod) (*Ciphertext, error) {
	return ev.rotate(nil, ct, r, m)
}

// RotateCtx is RotateWith with cancellation: the key-switch polls ctx at its
// limb-chunk boundaries.
func (ev *Evaluator) RotateCtx(ctx context.Context, ct *Ciphertext, r int, m KeySwitchMethod) (*Ciphertext, error) {
	return ev.rotate(newCancelCheck(ctx), ct, r, m)
}

func (ev *Evaluator) rotate(cc *cancelCheck, ct *Ciphertext, r int, m KeySwitchMethod) (*Ciphertext, error) {
	var t0 time.Time
	if ev.om != nil {
		t0 = time.Now()
	}
	galEl := ring.GaloisElementForRotation(ev.params.LogN(), r)
	out, err := ev.automorphism(cc, ct, galEl, m)
	if err == nil && ev.om != nil {
		ev.om.finish(ev.om.hrot[methodIdx(m)], "HRot", m, ct.Level, t0, cc)
	}
	return out, err
}

// Conjugate returns the slot-wise complex conjugate of ct.
func (ev *Evaluator) Conjugate(ct *Ciphertext) (*Ciphertext, error) {
	return ev.ConjugateWith(ct, ev.Method())
}

// ConjugateWith is Conjugate with an explicit key-switching backend.
func (ev *Evaluator) ConjugateWith(ct *Ciphertext, m KeySwitchMethod) (*Ciphertext, error) {
	return ev.conjugate(nil, ct, m)
}

// ConjugateCtx is ConjugateWith with cancellation.
func (ev *Evaluator) ConjugateCtx(ctx context.Context, ct *Ciphertext, m KeySwitchMethod) (*Ciphertext, error) {
	return ev.conjugate(newCancelCheck(ctx), ct, m)
}

func (ev *Evaluator) conjugate(cc *cancelCheck, ct *Ciphertext, m KeySwitchMethod) (*Ciphertext, error) {
	var t0 time.Time
	if ev.om != nil {
		t0 = time.Now()
	}
	galEl := ring.GaloisElementForConjugation(ev.params.LogN())
	out, err := ev.automorphism(cc, ct, galEl, m)
	if err == nil && ev.om != nil {
		ev.om.finish(ev.om.conj[methodIdx(m)], "Conjugate", m, ct.Level, t0, cc)
	}
	return out, err
}

func (ev *Evaluator) automorphism(cc *cancelCheck, ct *Ciphertext, galEl uint64, m KeySwitchMethod) (*Ciphertext, error) {
	if err := cc.err("HRot"); err != nil {
		return nil, err
	}
	sw, err := ev.switcherFor(m)
	if err != nil {
		return nil, err
	}
	key, err := ev.keys.GaloisKey(m, galEl)
	if err != nil {
		return nil, err
	}
	level := ct.Level
	rq := ev.params.ringQ.AtLevel(level)
	idx := ev.params.GaloisIndex(galEl)

	// Switch φ(c1) under the rotated key, then add φ(c0).
	c1Rot := ev.pool.Get(level + 1)
	defer ev.pool.Put(c1Rot)
	rq.AutomorphismNTT(ct.C1, c1Rot, idx)
	d0, d1, err := sw.switchPoly(cc, c1Rot, key, level)
	if err != nil {
		return nil, err
	}
	c0Rot := ev.pool.Get(level + 1)
	defer ev.pool.Put(c0Rot)
	rq.AutomorphismNTT(ct.C0, c0Rot, idx)
	rq.Add(d0, c0Rot, d0)
	return &Ciphertext{C0: d0, C1: d1, Level: level, Scale: ct.Scale}, nil
}

// RotateHoisted rotates ct by every requested amount, paying the expensive
// decomposition (ModUp) only once — the hoisting optimisation the FAST
// accelerator schedules (paper §2.2.3). Results are keyed by rotation amount.
func (ev *Evaluator) RotateHoisted(ct *Ciphertext, rotations []int) (map[int]*Ciphertext, error) {
	return ev.RotateHoistedWith(ct, rotations, ev.Method())
}

// RotateHoistedWith is RotateHoisted with an explicit key-switching backend.
func (ev *Evaluator) RotateHoistedWith(ct *Ciphertext, rotations []int, m KeySwitchMethod) (map[int]*Ciphertext, error) {
	return ev.rotateHoisted(nil, ct, rotations, m)
}

// RotateHoistedCtx is RotateHoistedWith with cancellation: ctx is polled
// inside the shared decomposition and before every per-rotation key-mult, so
// a canceled batch returns within a fraction of one key-switch with all
// pooled scratch released.
func (ev *Evaluator) RotateHoistedCtx(ctx context.Context, ct *Ciphertext, rotations []int, m KeySwitchMethod) (map[int]*Ciphertext, error) {
	return ev.rotateHoisted(newCancelCheck(ctx), ct, rotations, m)
}

func (ev *Evaluator) rotateHoisted(cc *cancelCheck, ct *Ciphertext, rotations []int, m KeySwitchMethod) (map[int]*Ciphertext, error) {
	var t0 time.Time
	if ev.om != nil {
		t0 = time.Now()
	}
	sw, err := ev.switcherFor(m)
	if err != nil {
		return nil, err
	}
	level := ct.Level
	rq := ev.params.ringQ.AtLevel(level)
	dec, err := sw.decompose(cc, ct.C1, level)
	if err != nil {
		return nil, err
	}
	defer sw.Release(dec)
	out := make(map[int]*Ciphertext, len(rotations))
	for _, r := range rotations {
		if err := cc.err("HRotHoisted"); err != nil {
			return nil, err
		}
		if r == 0 {
			out[0] = ct.CopyNew()
			continue
		}
		galEl := ring.GaloisElementForRotation(ev.params.LogN(), r)
		key, err := ev.keys.GaloisKey(m, galEl)
		if err != nil {
			return nil, err
		}
		idx := ev.params.GaloisIndex(galEl)
		rotDec := sw.Automorph(dec, idx)
		d0, d1, err := sw.keyMult(cc, rotDec, key, level)
		sw.Release(rotDec)
		if err != nil {
			return nil, err
		}
		c0Rot := ev.pool.Get(level + 1)
		rq.AutomorphismNTT(ct.C0, c0Rot, idx)
		rq.Add(d0, c0Rot, d0)
		ev.pool.Put(c0Rot)
		out[r] = &Ciphertext{C0: d0, C1: d1, Level: level, Scale: ct.Scale}
	}
	if ev.om != nil {
		// One span covers the whole hoisted group (single ModUp amortised
		// across len(rotations) key-mults).
		ev.om.finish(ev.om.hoisted[methodIdx(m)], "HRotHoisted", m, level, t0, cc)
	}
	return out, nil
}
