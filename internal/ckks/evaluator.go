package ckks

import (
	"context"
	"fmt"
	"math"
	"math/big"
	"sync"
	"time"

	"github.com/fastfhe/fast/internal/obs"
	"github.com/fastfhe/fast/internal/ring"
)

// Evaluator executes homomorphic operations. It owns one KeySwitcher per
// enabled backend, and every HMult/HRot names the backend it runs through
// (the ...With and ...Ctx variants) — the hook the Aether planner drives when
// it assigns a key-switching method per operation (paper §4.1). The pipelines
// built on it (bootstrap, LinearTransform, EvaluatePoly) run Hybrid.
//
// Concurrency: an Evaluator is safe for concurrent use from many goroutines.
// It holds no per-call state: the switcher map is immutable after
// construction, and every hot path draws its scratch polynomials from
// sync.Pool-backed buffer pools sized off the parameter set instead of
// sharing per-evaluator temporaries.
type Evaluator struct {
	params      *Parameters
	keys        *EvaluationKeySet
	switcher    map[KeySwitchMethod]*KeySwitcher
	parallelism int
	// pool holds ciphertext-shaped buffers (N x full Q chain): every op's
	// scratch, and the intermediates of the pipelines (see resultMode). It
	// counts this evaluator's traffic over the shape's reservoir.
	pool *ring.PolyPool

	// iMonomial is X^(N/2) over the full chain, built by monomialI on first
	// use.
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

// NewEvaluatorOptions builds an evaluator over the given key set. The hybrid
// backend is always available; the KLSS backend is constructed when the
// parameter set carries an auxiliary chain.
func NewEvaluatorOptions(params *Parameters, keys *EvaluationKeySet, opts EvaluatorOptions) (*Evaluator, error) {
	workers := opts.workers()
	ev := &Evaluator{
		params:      params,
		keys:        keys,
		switcher:    map[KeySwitchMethod]*KeySwitcher{},
		parallelism: workers,
		pool:        params.evalPool.Share(),
	}
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

// switcherFor resolves the switcher for a backend.
func (ev *Evaluator) switcherFor(m KeySwitchMethod) (*KeySwitcher, error) {
	sw, ok := ev.switcher[m]
	if !ok {
		return nil, fmt.Errorf("ckks: evaluator has no %v backend: %w", m, ErrMethodUnavailable)
	}
	return sw, nil
}

// Result ownership. Every exported op returns an exact-size allocation the
// caller owns (heapResult). The pipelines built from the ops — bootstrap,
// linear transforms, polynomial evaluation, hoisted rotations — instead take
// every intermediate from ev.pool (poolResult) and hand it back with recycle
// once it is dead. A pooled buffer is full-shape (MaxLevel+1 limbs, viewed at
// the level asked for) and arrives uncleared, so every op writes all of its
// output. A routine recycles only what it created, never a ciphertext it was
// given (or a view of one), and returns pooled scratch on its error paths too.
type resultMode bool

const (
	heapResult resultMode = false
	poolResult resultMode = true
)

// newCiphertext allocates an op's result per mode.
func (ev *Evaluator) newCiphertext(mode resultMode, level int, scale float64) *Ciphertext {
	if mode == poolResult {
		return &Ciphertext{C0: ev.pool.Get(level + 1), C1: ev.pool.Get(level + 1), Level: level, Scale: scale}
	}
	n := ev.params.N()
	return &Ciphertext{C0: ring.NewPoly(n, level+1), C1: ring.NewPoly(n, level+1), Level: level, Scale: scale}
}

// recycle hands pooled intermediates back to ev.pool. Nil entries are skipped
// and heap ciphertexts ignored (the pool drops foreign polynomials), so error
// paths can recycle whatever they made in either mode.
func (ev *Evaluator) recycle(cts ...*Ciphertext) {
	for _, ct := range cts {
		if ct != nil {
			ev.pool.Put(ct.C0)
			ev.pool.Put(ct.C1)
		}
	}
}

// export hands a pipeline's pooled result to its caller in the caller's mode:
// as it is, or copied into an exact-size allocation and recycled.
func (ev *Evaluator) export(ct *Ciphertext, mode resultMode) *Ciphertext {
	if mode == poolResult {
		return ct
	}
	out := ev.copyCiphertext(ct, heapResult)
	ev.recycle(ct)
	return out
}

// copyCiphertext returns a copy of ct allocated per mode.
func (ev *Evaluator) copyCiphertext(ct *Ciphertext, mode resultMode) *Ciphertext {
	out := ev.newCiphertext(mode, ct.Level, ct.Scale)
	out.C0.CopyValues(ct.C0)
	out.C1.CopyValues(ct.C1)
	return out
}

// view returns ct read at a level at or below its own: the same storage, no
// copy. Views are only read, and never recycled.
func (ct *Ciphertext) view(level int) *Ciphertext {
	if level == ct.Level {
		return ct
	}
	return &Ciphertext{C0: ct.C0.Truncated(level + 1), C1: ct.C1.Truncated(level + 1), Level: level, Scale: ct.Scale}
}

// DropLevel returns ct truncated by n limbs (no scaling).
func (ev *Evaluator) DropLevel(ct *Ciphertext, n int) *Ciphertext {
	return ct.view(ct.Level - n).CopyNew()
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
	return ev.addSub(a, b, false, heapResult)
}

// Sub returns a-b.
func (ev *Evaluator) Sub(a, b *Ciphertext) (*Ciphertext, error) {
	return ev.addSub(a, b, true, heapResult)
}

// addSub is Add (or Sub) at the lower of the two levels, into a result per
// mode.
func (ev *Evaluator) addSub(a, b *Ciphertext, sub bool, mode resultMode) (*Ciphertext, error) {
	var t0 time.Time
	if ev.om != nil {
		t0 = time.Now()
	}
	if !scalesMatch(a.Scale, b.Scale) {
		op := "HAdd"
		if sub {
			op = "HSub"
		}
		return nil, fmt.Errorf("ckks: %s %w: %g vs %g", op, ErrScaleMismatch, a.Scale, b.Scale)
	}
	level := min(a.Level, b.Level)
	a, b = a.view(level), b.view(level)
	rq := ev.params.ringQAt[level]
	out := ev.newCiphertext(mode, level, a.Scale)
	if sub {
		rq.Sub(a.C0, b.C0, out.C0)
		rq.Sub(a.C1, b.C1, out.C1)
	} else {
		rq.Add(a.C0, b.C0, out.C0)
		rq.Add(a.C1, b.C1, out.C1)
	}
	if ev.om != nil {
		ev.om.finishNoMethod(ev.om.hadd, "HAdd", level, t0, nil)
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
	ct = ct.view(level)
	out := &Ciphertext{C0: ring.NewPoly(ev.params.N(), level+1), C1: ct.C1.Clone(), Level: level, Scale: ct.Scale}
	ev.params.ringQAt[level].Add(ct.C0, pt.Value.Truncated(level+1), out.C0)
	if ev.om != nil {
		ev.om.finishNoMethod(ev.om.padd, "PAdd", level, t0, nil)
	}
	return out, nil
}

// MulPlain returns ct*pt (PMult) without rescaling; the output scale is the
// product of the scales.
func (ev *Evaluator) MulPlain(ct *Ciphertext, pt *Plaintext) (*Ciphertext, error) {
	return ev.mulPlainSum([]*Ciphertext{ct}, []*Plaintext{pt}, heapResult)
}

// mulPlainSum returns Σ_j cts[j]*pts[j] at the lowest operand level, into a
// result per mode: a BSGS giant bucket, the pack and unpack masks of the
// bootstrap, or one MulPlain. Per row it is one multiply-accumulate
// (ring.Modulus.MulAccRows) — the same residues as a product and an addition
// per term, with one pass and no intermediate. Every product must land on
// one scale, exactly (see addExact); the result carries it.
func (ev *Evaluator) mulPlainSum(cts []*Ciphertext, pts []*Plaintext, mode resultMode) (*Ciphertext, error) {
	var t0 time.Time
	if ev.om != nil {
		t0 = time.Now()
	}
	level, scale := cts[0].Level, cts[0].Scale*pts[0].Scale
	for j := range cts {
		level = min(level, cts[j].Level, pts[j].Level)
		if s := cts[j].Scale * pts[j].Scale; !exactScale(scale, s) {
			return nil, fmt.Errorf("ckks: plaintext-product sum %w: %g vs %g", ErrScaleMismatch, scale, s)
		}
	}
	out := ev.newCiphertext(mode, level, scale)
	n := ev.params.N()
	ring.ForEachLimbRange(level+1, ev.parallelism, func(lo, hi int) {
		var x0, x1, y [16][]uint64
		for i := lo; i < hi; i++ {
			xs0, xs1, ys := x0[:0], x1[:0], y[:0]
			for j, ct := range cts {
				xs0 = append(xs0, ct.C0.Coeffs[i][:n])
				xs1 = append(xs1, ct.C1.Coeffs[i][:n])
				ys = append(ys, pts[j].Value.Coeffs[i][:n])
			}
			m := ev.params.ringQ.Moduli[i]
			m.MulAccRows(out.C0.Coeffs[i], xs0, ys)
			m.MulAccRows(out.C1.Coeffs[i], xs1, ys)
		}
	})
	if ev.om != nil {
		ev.om.finishNoMethod(ev.om.pmult, "PMult", level, t0, nil)
	}
	return out, nil
}

// MulConst returns ct * c for a real constant (CMult): the constant is
// quantised at the default scale, so the output scale is Scale*Δ and the
// caller typically rescales next.
func (ev *Evaluator) MulConst(ct *Ciphertext, c float64) (*Ciphertext, error) {
	return ev.mulConstSum([]*Ciphertext{ct}, []float64{c}, []float64{ev.params.Scale()}, heapResult)
}

// mulConstSum returns Σ_j cts[j]*cs[j] at the lowest operand level, into a
// result per mode, with each constant quantised at its own scale
// constScales[j] instead of Δ: term j lands on cts[j].Scale*constScales[j].
// Polynomial evaluation picks the constant scales so that every term of its
// inner sum lands on one scale (exactly, see addExact), which the result
// carries; a caller that picks constScale so that c*constScale is an integer
// gets an exact multiplication whatever the size of c. Per row it is one
// multiply-accumulate with the constants broadcast
// (ring.Modulus.MulAccScalars).
func (ev *Evaluator) mulConstSum(cts []*Ciphertext, cs, constScales []float64, mode resultMode) (*Ciphertext, error) {
	var t0 time.Time
	if ev.om != nil {
		t0 = time.Now()
	}
	level, scale := cts[0].Level, cts[0].Scale*constScales[0]
	ks := make([]*big.Int, len(cts))
	for j, ct := range cts {
		level = min(level, ct.Level)
		if s := ct.Scale * constScales[j]; !exactScale(scale, s) {
			return nil, fmt.Errorf("ckks: constant-product sum %w: %g vs %g", ErrScaleMismatch, scale, s)
		}
		var err error
		if ks[j], err = scaleToInt(cs[j], constScales[j]); err != nil {
			return nil, err
		}
	}
	out := ev.newCiphertext(mode, level, scale)
	n := ev.params.N()
	ring.ForEachLimbRange(level+1, ev.parallelism, func(lo, hi int) {
		var x0, x1 [16][]uint64
		var wBuf [16]uint64
		var q, w big.Int
		for i := lo; i < hi; i++ {
			m := ev.params.ringQ.Moduli[i]
			q.SetUint64(m.Q)
			xs0, xs1, ws := x0[:0], x1[:0], wBuf[:0]
			for j, ct := range cts {
				xs0 = append(xs0, ct.C0.Coeffs[i][:n])
				xs1 = append(xs1, ct.C1.Coeffs[i][:n])
				ws = append(ws, w.Mod(ks[j], &q).Uint64())
			}
			m.MulAccScalars(out.C0.Coeffs[i], xs0, ws)
			m.MulAccScalars(out.C1.Coeffs[i], xs1, ws)
		}
	})
	if ev.om != nil {
		ev.om.finishNoMethod(ev.om.cmult, "CMult", level, t0, nil)
	}
	return out, nil
}

// mulByI returns i*ct at ct's level and scale, into a result per mode. Every
// slot root ζ^(5^j) of X^N+1 satisfies (ζ^(5^j))^(N/2) = i, so the monomial
// X^(N/2) is the all-i vector exactly: multiplying by it costs one pointwise
// product, no level and no quantisation error.
func (ev *Evaluator) mulByI(ct *Ciphertext, mode resultMode) (*Ciphertext, error) {
	return ev.mulPlainSum([]*Ciphertext{ct}, []*Plaintext{ev.monomialI()}, mode)
}

// monomialI is X^(N/2) over the full chain, in NTT form, built on first use.
func (ev *Evaluator) monomialI() *Plaintext {
	ev.iOnce.Do(func() {
		rq := ev.params.ringQ
		mono := rq.NewPoly()
		for i := range mono.Coeffs {
			mono.Coeffs[i][ev.params.N()/2] = 1
		}
		rq.NTT(mono)
		ev.iMonomial = &Plaintext{Value: mono, Level: ev.params.MaxLevel(), Scale: 1}
	})
	return ev.iMonomial
}

// AddConst returns ct + c for a real constant, at ct's scale.
func (ev *Evaluator) AddConst(ct *Ciphertext, c float64) (*Ciphertext, error) {
	return ev.addConst(ct, c, heapResult)
}

// addConst is AddConst into a result per mode.
func (ev *Evaluator) addConst(ct *Ciphertext, c float64, mode resultMode) (*Ciphertext, error) {
	k, err := scaleToInt(c, ct.Scale)
	if err != nil {
		return nil, err
	}
	rq := ev.params.ringQAt[ct.Level]
	out := ev.newCiphertext(mode, ct.Level, ct.Scale)
	out.C1.CopyValues(ct.C1)
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
	rq.Add(ct.C0, kModQ, out.C0)
	return out, nil
}

// MulRelinWith returns a*b relinearised through backend m (HMult). No
// rescale is performed; the output scale is the product.
func (ev *Evaluator) MulRelinWith(a, b *Ciphertext, m KeySwitchMethod) (*Ciphertext, error) {
	return ev.mulRelin(nil, a, b, m, heapResult)
}

// MulRelinCtx is MulRelinWith with cancellation: the relinearisation
// key-switch polls ctx at its limb-chunk boundaries and returns a typed
// ErrCanceled/ErrDeadline error (pooled scratch released) once ctx is done.
func (ev *Evaluator) MulRelinCtx(ctx context.Context, a, b *Ciphertext, m KeySwitchMethod) (*Ciphertext, error) {
	return ev.mulRelin(newCancelCheck(ctx), a, b, m, heapResult)
}

func (ev *Evaluator) mulRelin(cc *cancelCheck, a, b *Ciphertext, m KeySwitchMethod, mode resultMode) (*Ciphertext, error) {
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
	level := min(a.Level, b.Level)
	a, b = a.view(level), b.view(level)
	rq := ev.params.ringQAt[level]

	// Tensor: (d0, d1, d2) = (a0*b0, a0*b1 + a1*b0, a1*b1). d0 and d1 are
	// the result's, the quadratic term d2 and its switched pair are scratch.
	out := ev.newCiphertext(mode, level, a.Scale*b.Scale)
	d2 := ev.pool.Get(level + 1)
	e0, e1 := ev.pool.Get(level+1), ev.pool.Get(level+1)
	defer ev.pool.Put(d2)
	defer ev.pool.Put(e0)
	defer ev.pool.Put(e1)
	rq.MulCoeffs(a.C0, b.C0, out.C0)
	rq.MulCoeffs(a.C0, b.C1, out.C1)
	rq.MulCoeffsThenAdd(a.C1, b.C0, out.C1)
	rq.MulCoeffs(a.C1, b.C1, d2)

	// Relinearise d2 with the s^2 key.
	if err := sw.switchPoly(cc, d2, rlk, level, e0, e1); err != nil {
		ev.recycle(out)
		return nil, err
	}
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
	return ev.rescaleCC(nil, ct, heapResult)
}

// RescaleCtx is Rescale with a cancellation checkpoint at entry and between
// the two component passes.
func (ev *Evaluator) RescaleCtx(ctx context.Context, ct *Ciphertext) (*Ciphertext, error) {
	return ev.rescaleCC(newCancelCheck(ctx), ct, heapResult)
}

// rescaleCC rescales in the NTT domain (rns.Rescaler.RescaleNTT: only the
// dropped limb is transformed, and once per remaining limb back), into a
// result per mode.
func (ev *Evaluator) rescaleCC(cc *cancelCheck, ct *Ciphertext, mode resultMode) (*Ciphertext, error) {
	var t0 time.Time
	if ev.om != nil {
		t0 = time.Now()
	}
	if ct.Level == 0 {
		return nil, fmt.Errorf("ckks: cannot rescale at level 0: %w", ErrLevelExhausted)
	}
	level := ct.Level
	out := ev.newCiphertext(mode, level-1, ct.Scale/float64(ev.params.qChain[level]))
	tables := ev.params.ringQ.Tables[:level+1]
	for _, pair := range [2][2]ring.Poly{{ct.C0, out.C0}, {ct.C1, out.C1}} {
		if err := cc.err("Rescale"); err != nil {
			ev.recycle(out)
			return nil, err
		}
		ev.params.rescaler.RescaleNTT(pair[0].Coeffs[:level+1], pair[1].Coeffs, tables, ev.parallelism)
	}
	if ev.om != nil {
		ev.om.finishNoMethod(ev.om.rescale, "Rescale", level, t0, cc)
	}
	return out, nil
}

// RotateWith returns ct with its slots cyclically rotated by r (HRot), via
// backend m's Galois key.
func (ev *Evaluator) RotateWith(ct *Ciphertext, r int, m KeySwitchMethod) (*Ciphertext, error) {
	return ev.rotate(nil, ct, r, m, heapResult)
}

// RotateCtx is RotateWith with cancellation: the key-switch polls ctx at its
// limb-chunk boundaries.
func (ev *Evaluator) RotateCtx(ctx context.Context, ct *Ciphertext, r int, m KeySwitchMethod) (*Ciphertext, error) {
	return ev.rotate(newCancelCheck(ctx), ct, r, m, heapResult)
}

func (ev *Evaluator) rotate(cc *cancelCheck, ct *Ciphertext, r int, m KeySwitchMethod, mode resultMode) (*Ciphertext, error) {
	var t0 time.Time
	if ev.om != nil {
		t0 = time.Now()
	}
	galEl := ev.params.GaloisElement(r)
	out, err := ev.automorphism(cc, ct, galEl, m, mode)
	if err == nil && ev.om != nil {
		ev.om.finish(ev.om.hrot[methodIdx(m)], "HRot", m, ct.Level, t0, cc)
	}
	return out, err
}

// ConjugateWith returns the slot-wise complex conjugate of ct, via backend
// m's conjugation key.
func (ev *Evaluator) ConjugateWith(ct *Ciphertext, m KeySwitchMethod) (*Ciphertext, error) {
	return ev.conjugate(nil, ct, m, heapResult)
}

// ConjugateCtx is ConjugateWith with cancellation.
func (ev *Evaluator) ConjugateCtx(ctx context.Context, ct *Ciphertext, m KeySwitchMethod) (*Ciphertext, error) {
	return ev.conjugate(newCancelCheck(ctx), ct, m, heapResult)
}

func (ev *Evaluator) conjugate(cc *cancelCheck, ct *Ciphertext, m KeySwitchMethod, mode resultMode) (*Ciphertext, error) {
	var t0 time.Time
	if ev.om != nil {
		t0 = time.Now()
	}
	galEl := ev.params.ConjugationElement()
	out, err := ev.automorphism(cc, ct, galEl, m, mode)
	if err == nil && ev.om != nil {
		ev.om.finish(ev.om.conj[methodIdx(m)], "Conjugate", m, ct.Level, t0, cc)
	}
	return out, err
}

func (ev *Evaluator) automorphism(cc *cancelCheck, ct *Ciphertext, galEl uint64, m KeySwitchMethod, mode resultMode) (*Ciphertext, error) {
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
	rq := ev.params.ringQAt[level]
	idx := ev.params.GaloisIndex(galEl)

	// Switch φ(c1) under the rotated key, then add φ(c0).
	rot := ev.pool.Get(level + 1)
	defer ev.pool.Put(rot)
	rq.AutomorphismNTT(ct.C1, rot, idx)
	out := ev.newCiphertext(mode, level, ct.Scale)
	if err := sw.switchPoly(cc, rot, key, level, out.C0, out.C1); err != nil {
		ev.recycle(out)
		return nil, err
	}
	rq.AutomorphismNTT(ct.C0, rot, idx)
	rq.Add(out.C0, rot, out.C0)
	return out, nil
}

// RotateHoistedWith rotates ct by every requested amount through backend m,
// paying the expensive decomposition (ModUp) only once — the hoisting
// optimisation the FAST accelerator schedules (paper §2.2.3). Results are
// keyed by rotation amount; an amount listed twice is computed once.
func (ev *Evaluator) RotateHoistedWith(ct *Ciphertext, rotations []int, m KeySwitchMethod) (map[int]*Ciphertext, error) {
	return ev.rotateHoisted(nil, ct, rotations, m, heapResult)
}

// RotateHoistedCtx is RotateHoistedWith with cancellation: ctx is polled
// inside the shared decomposition and before every per-rotation key-mult, so
// a canceled batch returns within a fraction of one key-switch with all
// pooled scratch released.
func (ev *Evaluator) RotateHoistedCtx(ctx context.Context, ct *Ciphertext, rotations []int, m KeySwitchMethod) (map[int]*Ciphertext, error) {
	return ev.rotateHoisted(newCancelCheck(ctx), ct, rotations, m, heapResult)
}

// RotateSumWith returns Σ_r rot(ct, r) over rotations through backend m as
// one key switch: one decomposition, the h rotated decompositions' KeyMults
// accumulated in the PQ basis, and one ModDown pair — instead of h ModDown
// pairs and h-1 additions. The sum is rounded once, so it decrypts at least
// as close to the plaintext sum as the separate rotations added up. A
// rotation by 0 adds ct itself, and an amount listed twice is added twice.
func (ev *Evaluator) RotateSumWith(ct *Ciphertext, rotations []int, m KeySwitchMethod) (*Ciphertext, error) {
	_, sums, err := ev.rotateHoistedSums(nil, ct, nil, [][]int{rotations}, m, heapResult)
	if err != nil {
		return nil, err
	}
	return sums[0], nil
}

// RotateHoistedSumsCtx serves a whole hoist group from one decomposition of
// ct: the rotation by each amount in rotations (as RotateHoistedCtx) and, for
// each sums[i], the rotate-and-sum of its amounts (as RotateSumWith), under
// one cancellation context. A rotated decomposition is computed once however
// many of the outputs need it.
func (ev *Evaluator) RotateHoistedSumsCtx(ctx context.Context, ct *Ciphertext, rotations []int, sums [][]int, m KeySwitchMethod) (map[int]*Ciphertext, []*Ciphertext, error) {
	return ev.rotateHoistedSums(newCancelCheck(ctx), ct, rotations, sums, m, heapResult)
}

// rotateHoisted returns the rotations as results per mode; on error, none.
func (ev *Evaluator) rotateHoisted(cc *cancelCheck, ct *Ciphertext, rotations []int, m KeySwitchMethod, mode resultMode) (map[int]*Ciphertext, error) {
	out, _, err := ev.rotateHoistedSums(cc, ct, rotations, nil, m, mode)
	return out, err
}

// rotateHoistedSums returns the rotations and the sums as results per mode;
// on error, none. The sums run first and keep their rotated decompositions
// until the end, so a rotation they share with a sum or a loose rotation is
// permuted once; a loose rotation no sum needs releases its own right after
// its key switch, as it always has.
func (ev *Evaluator) rotateHoistedSums(cc *cancelCheck, ct *Ciphertext, rotations []int, sums [][]int, m KeySwitchMethod, mode resultMode) (map[int]*Ciphertext, []*Ciphertext, error) {
	var t0 time.Time
	if ev.om != nil {
		t0 = time.Now()
	}
	sw, err := ev.switcherFor(m)
	if err != nil {
		return nil, nil, err
	}
	level := ct.Level
	rq := ev.params.ringQAt[level]
	dec, err := sw.decompose(cc, ct.C1, level)
	if err != nil {
		return nil, nil, err
	}
	defer sw.Release(dec)
	out := make(map[int]*Ciphertext, len(rotations))
	sumOut := make([]*Ciphertext, len(sums))
	fail := func(err error) (map[int]*Ciphertext, []*Ciphertext, error) {
		for _, c := range out {
			ev.recycle(c)
		}
		ev.recycle(sumOut...)
		return nil, nil, err
	}

	// rotated is rotation r's key-switch term with its NTT-domain index
	// table; held ones are kept (and released at return) for later outputs.
	type rotTerm struct {
		ksTerm
		idx []int
	}
	held := make(map[int]rotTerm)
	defer func() {
		for _, rt := range held {
			sw.Release(rt.d)
		}
	}()
	rotated := func(r int, hold bool) (rotTerm, error) {
		if rt, ok := held[r]; ok {
			return rt, nil
		}
		galEl := ev.params.GaloisElement(r)
		key, err := ev.keys.GaloisKey(m, galEl)
		if err != nil {
			return rotTerm{}, err
		}
		idx := ev.params.GaloisIndex(galEl)
		rt := rotTerm{ksTerm{sw.Automorph(dec, idx), key}, idx}
		if hold {
			held[r] = rt
		}
		return rt, nil
	}

	c0Rot := ev.pool.Get(level + 1)
	defer ev.pool.Put(c0Rot)
	var terms []ksTerm
	for si, rs := range sums {
		if err := cc.err("HRotHoisted"); err != nil {
			return fail(err)
		}
		res := ev.newCiphertext(mode, level, ct.Scale)
		sumOut[si] = res
		terms = terms[:0]
		for _, r := range rs {
			if r == 0 {
				continue
			}
			rt, err := rotated(r, true)
			if err != nil {
				return fail(err)
			}
			terms = append(terms, rt.ksTerm)
		}
		if len(terms) > 0 {
			if err := sw.keyMult(cc, terms, level, res.C0, res.C1); err != nil {
				return fail(err)
			}
		} else {
			res.C0.Zero()
			res.C1.Zero()
		}
		for _, r := range rs {
			if r == 0 {
				rq.Add(res.C0, ct.C0, res.C0)
				rq.Add(res.C1, ct.C1, res.C1)
				continue
			}
			rq.AutomorphismNTT(ct.C0, c0Rot, held[r].idx)
			rq.Add(res.C0, c0Rot, res.C0)
		}
	}
	for _, r := range rotations {
		if err := cc.err("HRotHoisted"); err != nil {
			return fail(err)
		}
		if _, done := out[r]; done {
			continue
		}
		if r == 0 {
			out[0] = ev.copyCiphertext(ct, mode)
			continue
		}
		res := ev.newCiphertext(mode, level, ct.Scale)
		out[r] = res
		_, hold := held[r]
		rt, err := rotated(r, hold)
		if err != nil {
			return fail(err)
		}
		err = sw.keyMult(cc, []ksTerm{rt.ksTerm}, level, res.C0, res.C1)
		if !hold {
			sw.Release(rt.d)
		}
		if err != nil {
			return fail(err)
		}
		rq.AutomorphismNTT(ct.C0, c0Rot, rt.idx)
		rq.Add(res.C0, c0Rot, res.C0)
	}
	if ev.om != nil {
		// One span covers the whole hoisted group (single ModUp amortised
		// across its key-mults).
		ev.om.finish(ev.om.hoisted[methodIdx(m)], "HRotHoisted", m, level, t0, cc)
	}
	return out, sumOut, nil
}
