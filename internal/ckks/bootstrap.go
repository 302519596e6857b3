package ckks

import (
	"context"
	"fmt"
	"math"
	"sort"

	"github.com/fastfhe/fast/internal/ring"
)

// BootstrapParameters tunes the bootstrapping pipeline (paper §6.2: the
// fully-packed pipeline consists of ModRaise, CoeffToSlot, EvalMod and
// SlotToCoeff; this functional implementation follows the same four stages
// with the sparse-packing SubSum step in between).
type BootstrapParameters struct {
	// K bounds the integer multiples of q0 the raised ciphertext carries
	// (|I| <= K with overwhelming probability for a sparse secret).
	K int
	// SinDegree is the Taylor degree of the complex-exponential seed
	// exp(iθ) that EvalMod squares up to exp(i·2^r·θ).
	SinDegree int
	// DoubleAngles is the number of squarings r; the seed angle is divided
	// by 2^r so the Taylor series converges.
	DoubleAngles int
}

// DefaultBootstrapParameters works with a hamming-weight-16 secret. The
// gap-indexed coefficients the pipeline tracks are fixed points of the
// SubSum trace, so the q0-multiples arrive as exact multiples of
// q0*N/(2n) and the effective integer range stays at the raw |I| bound
// (~6*sigma(I) ≈ 8 for weight 16); 2^8 halvings keep the Taylor seed angle
// below 0.5.
func DefaultBootstrapParameters() BootstrapParameters {
	return BootstrapParameters{K: 10, SinDegree: 9, DoubleAngles: 8}
}

// Depth returns the number of levels one bootstrap consumes: CoeffToSlot,
// pack, angle, the Taylor seed, the squarings, unpack, SlotToCoeff.
func (bp BootstrapParameters) Depth() int {
	return 3 + polyLevels(bp.SinDegree) + bp.DoubleAngles + 2
}

// Bootstrapper refreshes exhausted ciphertexts: it re-raises a level-0
// ciphertext to the top of the modulus chain and homomorphically removes the
// q0-multiples this introduces. Every table is built by NewBootstrapper (the
// levels the stages run at are a function of the parameters alone); the
// Bootstrapper is immutable afterwards and safe for concurrent use.
type Bootstrapper struct {
	params *Parameters
	eval   *Evaluator
	bp     BootstrapParameters

	ctsLT, stcLT *LinearTransform

	// EvalMod works on real slot vectors, CoeffToSlot leaves a complex one,
	// w. With n <= N/4 slots, w is n-periodic under the 2n-slot encoder
	// wide, so two 2n-slot masks pack (Re w ‖ Im w) into one ciphertext and
	// EvalMod runs once; unpack holds the one mask that undoes it. At full
	// packing there is no room: wide is enc, the masks are constants, Re w
	// and Im w stay two ciphertexts and unpack holds one mask for each.
	wide   *Encoder
	pack   [2]*Plaintext // times sum = 2 Re w, times diff = 2i Im w
	unpack []*Plaintext

	seed []complex128 // Taylor coefficients of exp(iθ)
}

// BootstrapRotations returns every rotation amount the bootstrapper needs
// Galois keys for (SubSum ladder + both DFT transforms); conjugation and
// relinearisation keys are also required.
func BootstrapRotations(params *Parameters) []int {
	n := params.Slots()
	seen := map[int]bool{}
	// SubSum ladder.
	for i := n; i < params.N()/2; i <<= 1 {
		seen[i] = true
	}
	// BSGS babies and giants for an n-diagonal transform.
	bs := 1
	for bs*bs < n {
		bs <<= 1
	}
	for b := 1; b < bs; b++ {
		seen[b] = true
	}
	for g := bs; g < n; g += bs {
		seen[g] = true
	}
	var out []int
	for r := range seen {
		out = append(out, r)
	}
	// Key generation draws from one seeded sampler in this order, so it must
	// not follow map iteration: same seed, same keys.
	sort.Ints(out)
	return out
}

// NewBootstrapper precomputes the DFT transforms and the pack/unpack masks.
// The evaluator must hold Galois keys for BootstrapRotations plus the
// conjugation and relin keys.
func NewBootstrapper(params *Parameters, enc *Encoder, eval *Evaluator, bp BootstrapParameters) (*Bootstrapper, error) {
	if params.secretHW == 0 {
		return nil, fmt.Errorf("ckks: bootstrapping requires a sparse secret (SecretHammingWeight > 0): %w", ErrInvalidParameters)
	}
	if params.MaxLevel() < bp.Depth() {
		return nil, fmt.Errorf("ckks: chain depth %d below bootstrap depth %d: %w", params.MaxLevel(), bp.Depth(), ErrInvalidParameters)
	}
	bt := &Bootstrapper{params: params, eval: eval, bp: bp, wide: enc}
	n, delta := params.Slots(), params.Scale()

	// CoeffToSlot matrix: the inverse special FFT (embed). The SubSum fold
	// factor N/(2n) is deliberately NOT divided out here: doing so would
	// turn the integer q0-multiples carried by the slots into fractions the
	// sine cannot remove. It is removed after EvalMod instead, where 1/fold
	// merges exactly into the unpack mask's constant.
	diags, err := bt.dftDiagonals(func(col []complex128) { enc.embed(col) }, 1)
	if err != nil {
		return nil, err
	}
	if bt.ctsLT, err = NewLinearTransform(enc, diags, params.MaxLevel(), delta, 0); err != nil {
		return nil, err
	}

	// The levels of Depth(), top down: CoeffToSlot, pack, angle, seed,
	// squarings end at unpackLevel; unpack; SlotToCoeff.
	packLevel := params.MaxLevel() - 1
	unpackLevel := params.MaxLevel() - bp.Depth() + 2
	if diags, err = bt.dftDiagonals(func(col []complex128) { enc.project(col) }, 1); err != nil {
		return nil, err
	}
	if bt.stcLT, err = NewLinearTransform(enc, diags, unpackLevel-1, delta, 0); err != nil {
		return nil, err
	}

	bt.seed = expTaylor(bp.SinDegree)

	// The seed lands on Δ and every squaring maps scale s to s*s/q, so the
	// scale EvalMod ends on is known here. The unpack mask is encoded at the
	// scale that brings the two rescales still to come back to Δ exactly:
	// the output needs no scale adjustment.
	s := delta
	for level := unpackLevel + bp.DoubleAngles; level > unpackLevel; level-- {
		s = s * s / float64(params.qChain[level])
	}
	unpackScale := float64(params.qChain[unpackLevel]) * float64(params.qChain[unpackLevel-1]) / s

	// Pack: sum = 2 Re w and diff = 2i Im w, so Re w = sum/2 and
	// Im w = diff*(-i/2). Unpack: EvalMod hands back d = 2i sin(Θ) per slot
	// and the message is sin(Θ)*q0/(2πΔ) =: sin(Θ)*a, real part from the Re
	// slots and imaginary part from the Im slots: d*(-ia/2) and d*(a/2).
	a := float64(params.qChain[0]) / (2 * math.Pi * delta)
	halfI := complex(0, 0.5)
	packMasks := [2][2]complex128{{0.5, 0}, {0, -halfI}}
	unpackMasks := [][2]complex128{{-halfI * complex(a, 0), complex(a/2, 0)}}
	if 2*n <= params.N()/2 {
		bt.wide = newEncoderSlots(params, 2*n)
	} else {
		packMasks = [2][2]complex128{{0.5}, {-halfI}}
		unpackMasks = [][2]complex128{{-halfI * complex(a, 0)}, {complex(a/2, 0)}}
	}
	// m[0] fills the first n slots (all of them at full packing), m[1] the
	// rest.
	encode := func(m [2]complex128, level int, scale float64) (*Plaintext, error) {
		v := make([]complex128, bt.wide.slots)
		for j := range v {
			v[j] = m[j/n]
		}
		return bt.wide.EncodeAtLevel(v, level, scale)
	}
	for i, m := range packMasks {
		if bt.pack[i], err = encode(m, packLevel, delta); err != nil {
			return nil, err
		}
	}
	for _, m := range unpackMasks {
		pt, err := encode(m, unpackLevel, unpackScale)
		if err != nil {
			return nil, err
		}
		bt.unpack = append(bt.unpack, pt)
	}
	return bt, nil
}

// expTaylor returns the coefficients of exp(iθ) = sum_k (iθ)^k / k! up to
// the given degree.
func expTaylor(deg int) []complex128 {
	coeffs := make([]complex128, deg+1)
	term := complex(1, 0)
	for k := range coeffs {
		if k > 0 {
			term *= complex(0, 1/float64(k))
		}
		coeffs[k] = term
	}
	return coeffs
}

// dftDiagonals builds the generalised diagonals of the n x n matrix whose
// k-th column is transform(e_k), scaled by factor.
func (bt *Bootstrapper) dftDiagonals(transform func([]complex128), factor complex128) (map[int][]complex128, error) {
	n := bt.params.Slots()
	mat := make([][]complex128, n) // mat[i][k]
	for i := range mat {
		mat[i] = make([]complex128, n)
	}
	col := make([]complex128, n)
	for k := 0; k < n; k++ {
		for i := range col {
			col[i] = 0
		}
		col[k] = 1
		transform(col)
		for i := 0; i < n; i++ {
			mat[i][k] = col[i] * factor
		}
	}
	diags := map[int][]complex128{}
	for d := 0; d < n; d++ {
		diag := make([]complex128, n)
		nz := false
		for i := 0; i < n; i++ {
			diag[i] = mat[i][(i+d)%n]
			if diag[i] != 0 {
				nz = true
			}
		}
		if nz {
			diags[d] = diag
		}
	}
	if len(diags) == 0 {
		return nil, fmt.Errorf("ckks: empty DFT matrix")
	}
	return diags, nil
}

// modRaise lifts a level-0 ciphertext to the top of the chain: the centered
// residues mod q0 are re-reduced into every limb, so the new ciphertext
// encrypts m + q0*I for a small integer polynomial I (the quantity EvalMod
// later removes). The result is pooled.
//
// Every stage below follows the evaluator's ownership rule (see resultMode):
// it returns a pooled ciphertext its caller owns and recycles, recycles every
// intermediate it creates — on its error paths too — and only reads the
// ciphertexts it is given.
func (bt *Bootstrapper) modRaise(ct *Ciphertext) (*Ciphertext, error) {
	if ct.Level != 0 {
		return nil, fmt.Errorf("ckks: modRaise expects a level-0 ciphertext, got level %d: %w", ct.Level, ErrLevelMismatch)
	}
	p, ev := bt.params, bt.eval
	q0 := p.qChain[0]

	out := ev.newCiphertext(poolResult, p.MaxLevel(), ct.Scale)
	centered := make([]int64, p.N())
	coeffs := ev.pool.Get(1)
	defer ev.pool.Put(coeffs)
	for _, pair := range [2][2]ring.Poly{{ct.C0, out.C0}, {ct.C1, out.C1}} {
		coeffs.CopyValues(pair[0])
		p.ringQAt[0].INTT(coeffs)
		for j, v := range coeffs.Coeffs[0] {
			centered[j] = int64(v)
			if v > q0/2 {
				centered[j] -= int64(q0)
			}
		}
		ring.SetSigned(p.ringQ, centered, pair[1])
		p.ringQ.NTT(pair[1])
	}
	return out, nil
}

// subSum folds the sparse packing: for n < N/2 slots the ladder
// ct += rot(ct, n*2^t) projects the raised polynomial onto the subring the
// sparse embedding reads, scaled by fold = N/(2n) (divided out by the unpack
// mask, after EvalMod).
func (bt *Bootstrapper) subSum(cc *cancelCheck, ct *Ciphertext) (*Ciphertext, error) {
	ev := bt.eval
	// The ladder runs on a copy, so every rung may recycle the one before it
	// and the result is new even when there is no rung (full packing).
	acc := ev.copyCiphertext(ct, poolResult)
	for i := bt.params.Slots(); i < bt.params.N()/2; i <<= 1 {
		rot, err := ev.rotate(cc, acc, i, Hybrid, poolResult)
		if err != nil {
			ev.recycle(acc)
			return nil, err
		}
		sum, err := ev.addSub(acc, rot, false, poolResult)
		ev.recycle(acc, rot)
		if err != nil {
			return nil, err
		}
		acc = sum
	}
	return acc, nil
}

// coeffToSlot moves the folded polynomial's coefficients into the slots —
// w_j = c[j*gap]/Δ + i*c[j*gap+N/2]/Δ — and splits w into the real slot
// vectors EvalMod works on: one ciphertext holding (Re w ‖ Im w), or at full
// packing the two ciphertexts Re w and Im w.
func (bt *Bootstrapper) coeffToSlot(cc *cancelCheck, ct *Ciphertext) ([]*Ciphertext, error) {
	ev := bt.eval
	lt, err := ev.linearTransform(cc, ct, bt.ctsLT, poolResult)
	if err != nil {
		return nil, err
	}
	slots, err := ev.rescaleCC(cc, lt, poolResult)
	ev.recycle(lt)
	if err != nil {
		return nil, err
	}
	conj, err := ev.conjugate(cc, slots, Hybrid, poolResult)
	if err != nil {
		ev.recycle(slots)
		return nil, err
	}
	sum, err := ev.addSub(slots, conj, false, poolResult) // 2*Re(w)
	var diff *Ciphertext
	if err == nil {
		diff, err = ev.addSub(slots, conj, true, poolResult) // 2i*Im(w)
	}
	ev.recycle(slots, conj)
	if err != nil {
		ev.recycle(sum)
		return nil, err
	}
	// Re w = sum*pack[0] and Im w = diff*pack[1]; packed into one ciphertext
	// they are one two-term multiply-accumulate.
	halves := []*Ciphertext{sum, diff}
	spans := [][2]int{{0, 2}}
	if len(bt.unpack) == 2 {
		spans = [][2]int{{0, 1}, {1, 2}}
	}
	var parts []*Ciphertext
	for _, sp := range spans {
		part, err := ev.mulPlainSum(halves[sp[0]:sp[1]], bt.pack[sp[0]:sp[1]], poolResult)
		if err != nil {
			ev.recycle(sum, diff)
			ev.recycle(parts...)
			return nil, err
		}
		parts = append(parts, part)
	}
	ev.recycle(sum, diff)
	for i, part := range parts {
		parts[i], err = ev.rescaleCC(cc, part, poolResult)
		ev.recycle(part)
		if err != nil {
			ev.recycle(parts...)
			return nil, err
		}
	}
	return parts, nil
}

// evalMod takes real slots t and returns 2i*sin(2π·anchor·t/(q0·fold)) per
// slot, which the unpack mask turns into t reduced modulo q0·fold/anchor: it
// evaluates z = exp(iθ) at the angle θ = 2π·anchor·t/(q0·fold·2^r) by a
// Taylor polynomial, squares z r times and takes z - conj(z). Squaring a
// unit-modulus z doubles its relative error, 2^r overall; a cosine-only
// ladder 2c²-1 would quadruple it each step.
//
// anchor is the scale at which the q0-multiples are exact integers: the
// *original* encoding scale of the bootstrapped ciphertext, which ct.Scale
// has tracked exactly since. fold = N/(2n) multiplies the modulus because
// the SubSum trace fixes the gap monomials, summing fold equal
// contributions: the q0-multiples are exact multiples of q0*fold, and
// reducing modulo that shrinks the integer range by fold.
func (bt *Bootstrapper) evalMod(cc *cancelCheck, ct *Ciphertext, anchor float64) (*Ciphertext, error) {
	ev := bt.eval
	delta := bt.params.Scale()
	fold := float64(bt.params.N()) / float64(2*bt.params.Slots())

	// θ = kappa*t with kappa ~ 2^-22: quantised at Δ it would keep ~18
	// significant bits and the ladder amplifies the loss by q0/Δ·I. Quantise
	// it instead at the scale nearest Δ·q/ct.Scale that makes it an integer:
	// the product is exact, θ lands within 2^-17 of Δ, and the polynomial
	// evaluation takes whatever scale it is given.
	kappa := 2 * math.Pi * anchor / (float64(bt.params.qChain[0]) * fold * math.Exp2(float64(bt.bp.DoubleAngles)))
	m := math.Round(kappa * delta * float64(bt.params.qChain[ct.Level]) / ct.Scale)
	scaled, err := ev.mulConstSum([]*Ciphertext{ct}, []float64{kappa}, []float64{m / kappa}, poolResult)
	if err != nil {
		return nil, err
	}
	theta, err := ev.rescaleCC(cc, scaled, poolResult)
	ev.recycle(scaled)
	if err != nil {
		return nil, err
	}
	z, err := ev.evaluatePoly(cc, theta, bt.seed, delta, poolResult)
	ev.recycle(theta)
	if err != nil {
		return nil, err
	}
	for it := 0; it < bt.bp.DoubleAngles; it++ {
		if err := cc.err("EvalMod"); err != nil {
			ev.recycle(z)
			return nil, err
		}
		next, err := ev.mulRescaleCC(cc, z, z, poolResult)
		ev.recycle(z)
		if err != nil {
			return nil, err
		}
		z = next
	}
	conj, err := ev.conjugate(cc, z, Hybrid, poolResult)
	if err != nil {
		ev.recycle(z)
		return nil, err
	}
	out, err := ev.addSub(z, conj, true, poolResult)
	ev.recycle(z, conj)
	return out, err
}

// unpackSlots rebuilds the complex slot vector from EvalMod's output: the
// mask leaves (u ‖ iv), and adding its rotation by n makes u+iv n-periodic
// again. That rotation's Galois key is the first rung of the SubSum ladder.
func (bt *Bootstrapper) unpackSlots(cc *cancelCheck, parts []*Ciphertext) (*Ciphertext, error) {
	ev := bt.eval
	masked, err := ev.mulPlainSum(parts, bt.unpack, poolResult)
	if err != nil {
		return nil, err
	}
	acc, err := ev.rescaleCC(cc, masked, poolResult)
	ev.recycle(masked)
	if err != nil || len(parts) == 2 {
		return acc, err
	}
	rot, err := ev.rotate(cc, acc, bt.params.Slots(), Hybrid, poolResult)
	if err != nil {
		ev.recycle(acc)
		return nil, err
	}
	out, err := ev.addSub(acc, rot, false, poolResult)
	ev.recycle(acc, rot)
	return out, err
}

// slotToCoeff applies the forward special FFT to the unpacked slots. Its
// result is the bootstrap's: an exact-size allocation, not pooled.
func (bt *Bootstrapper) slotToCoeff(cc *cancelCheck, parts []*Ciphertext) (*Ciphertext, error) {
	slots, err := bt.unpackSlots(cc, parts)
	if err != nil {
		return nil, err
	}
	moved, err := bt.eval.linearTransform(cc, slots, bt.stcLT, poolResult)
	bt.eval.recycle(slots)
	if err != nil {
		return nil, err
	}
	out, err := bt.eval.rescaleCC(cc, moved, heapResult)
	bt.eval.recycle(moved)
	return out, err
}

// Bootstrap refreshes a level-0 ciphertext, returning an encryption of the
// same message at the same scale with the levels the pipeline did not
// consume (MaxLevel - Depth()) available.
func (bt *Bootstrapper) Bootstrap(ct *Ciphertext) (*Ciphertext, error) {
	return bt.bootstrap(nil, ct)
}

// BootstrapCtx is Bootstrap with cancellation: ctx is polled between every
// pipeline stage (ModRaise, SubSum, CoeffToSlot, EvalMod, SlotToCoeff) and
// inside each stage at every level of the underlying DFTs, polynomial
// evaluations and squarings, so a bootstrap abandons within roughly one
// key-switch of ctx being done.
func (bt *Bootstrapper) BootstrapCtx(ctx context.Context, ct *Ciphertext) (*Ciphertext, error) {
	return bt.bootstrap(newCancelCheck(ctx), ct)
}

func (bt *Bootstrapper) bootstrap(cc *cancelCheck, ct *Ciphertext) (*Ciphertext, error) {
	if err := cc.err("Bootstrap"); err != nil {
		return nil, err
	}
	ev := bt.eval
	raised, err := bt.modRaise(ct)
	if err != nil {
		return nil, err
	}
	folded, err := bt.subSum(cc, raised)
	ev.recycle(raised)
	if err != nil {
		return nil, err
	}
	parts, err := bt.coeffToSlot(cc, folded)
	ev.recycle(folded)
	if err != nil {
		return nil, err
	}
	defer func() { ev.recycle(parts...) }()
	for i, part := range parts {
		parts[i], err = bt.evalMod(cc, part, ct.Scale)
		ev.recycle(part)
		if err != nil {
			return nil, err
		}
	}
	out, err := bt.slotToCoeff(cc, parts)
	if err != nil {
		return nil, err
	}
	// The masks were built for a message encoded at Δ: the slots hold
	// sin(Θ)*q0/(2πΔ) at scale Δ. The message is sin(Θ)*q0/(2π·anchor), which
	// is the same ciphertext read at the input's scale.
	out.Scale *= ct.Scale / bt.params.Scale()
	return out, nil
}
