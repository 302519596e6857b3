package ckks

import (
	"fmt"
	"math/big"
	"sync"
	"sync/atomic"

	"github.com/fastfhe/fast/internal/obs"
	"github.com/fastfhe/fast/internal/ring"
)

// SecretKey holds the ternary secret s, embedded (NTT form) over each key
// ring the parameter set enables.
type SecretKey struct {
	QP ring.Poly // over Q ++ P
	QT ring.Poly // over Q ++ T; zero-value when KLSS is disabled
}

// PublicKey is an encryption key (b, a) = (-a*s + e, a) over the full Q
// chain, NTT form.
type PublicKey struct {
	B, A ring.Poly
}

// SwitchingKey re-encrypts c*sIn into a ciphertext under sOut (s for a
// relinearization key, φ⁻¹(s) for a Galois key). It holds β gadget pairs
// (B[j], A[j]) over the backend's key ring (Q++P for Hybrid, Q++T for KLSS),
// all NTT form, each row packed at the width of its prime (ring.PackedPoly):
// keys are most of a context's resident bytes, and KeyMult reads them
// through the multiply-accumulate that widens them
// (ring.Modulus.MulAccPackedRows).
type SwitchingKey struct {
	Method KeySwitchMethod
	B, A   []ring.PackedPoly
}

// EvaluationKeySet names the evaluation keys of one secret: per method, the
// relinearization key and a Galois key per element. Each key is a
// deterministic function of the parameter seed, the secret, the method and
// the element, drawn from a sampler stream of its own (keyStream), so a set
// has no wire form and no generation order: a key is derived on its first
// lookup (concurrent first lookups wait for that one) and held from then on.
// A lookup of a key the set does not name returns ErrKeyMissing; the zero
// value names none.
type EvaluationKeySet struct {
	keys map[KeyID]*lazyKey
}

// KeyID names one evaluation key: a method's relinearization key (GalEl 0,
// which no automorphism has — Galois elements are odd) or its Galois key for
// GalEl.
type KeyID struct {
	Method KeySwitchMethod
	GalEl  uint64
}

// keyStream is the sampler stream a key is drawn from under the parameter
// seed: one per (method, element), disjoint from the main stream of sk and
// pk and from the encryptor's.
func (id KeyID) keyStream() uint64 { return uint64(id.Method)<<32 | id.GalEl }

// lazyKey is one key of a set: get derives it once, derived reports that it
// has been.
type lazyKey struct {
	get     func() (*SwitchingKey, error)
	derived atomic.Bool
}

// NewEvaluationKeySet returns the set naming, for each of methods, the
// relinearization key and the Galois keys of rotations (and of conjugation
// if conj) under sk, none of them derived yet. A rotation listed twice, or
// two rotations with one element, name one key. The observer, when non-nil,
// counts each derivation's draws on ckks.sampler.draws.
func NewEvaluationKeySet(params *Parameters, sk *SecretKey, methods []KeySwitchMethod, rotations []int, conj bool, o *obs.Observer) *EvaluationKeySet {
	var draws *obs.Counter
	if o != nil {
		draws = o.Reg().Counter("ckks.sampler.draws")
	}
	galEls := []uint64{0}
	for _, r := range rotations {
		galEls = append(galEls, params.GaloisElement(r))
	}
	if conj {
		galEls = append(galEls, params.ConjugationElement())
	}
	s := &EvaluationKeySet{keys: make(map[KeyID]*lazyKey, len(methods)*len(galEls))}
	for _, m := range methods {
		for _, el := range galEls {
			id := KeyID{m, el}
			if s.keys[id] != nil {
				continue
			}
			k := &lazyKey{}
			k.get = sync.OnceValues(func() (*SwitchingKey, error) {
				defer k.derived.Store(true)
				return deriveKey(params, sk, id, draws)
			})
			s.keys[id] = k
		}
	}
	return s
}

// deriveKey generates the key id names from its own stream.
func deriveKey(params *Parameters, sk *SecretKey, id KeyID, draws *obs.Counter) (*SwitchingKey, error) {
	kg := &KeyGenerator{params: params, sampler: ring.NewStreamSampler(uint64(params.seed), id.keyStream())}
	kg.sampler.Instrument(draws)
	if id.GalEl == 0 {
		return kg.GenRelinearizationKey(sk, id.Method)
	}
	return kg.GenGaloisKey(sk, id.GalEl, id.Method)
}

// key returns the key id names, deriving it on the first call.
func (s *EvaluationKeySet) key(id KeyID) (*SwitchingKey, error) {
	k := s.keys[id]
	if k == nil {
		if id.GalEl == 0 {
			return nil, fmt.Errorf("ckks: no %v relinearization key in the set: %w", id.Method, ErrKeyMissing)
		}
		return nil, fmt.Errorf("ckks: no %v galois key for element %d: %w", id.Method, id.GalEl, ErrKeyMissing)
	}
	return k.get()
}

// RelinKey returns the relinearization key for the method, or an error if
// the set does not name it.
func (s *EvaluationKeySet) RelinKey(m KeySwitchMethod) (*SwitchingKey, error) {
	return s.key(KeyID{Method: m})
}

// GaloisKey returns the Galois key for the method and element.
func (s *EvaluationKeySet) GaloisKey(m KeySwitchMethod, galEl uint64) (*SwitchingKey, error) {
	return s.key(KeyID{m, galEl})
}

// Pending reports whether the set names the key and has not derived it yet:
// its next lookup pays the derivation.
func (s *EvaluationKeySet) Pending(id KeyID) bool {
	k := s.keys[id]
	return k != nil && !k.derived.Load()
}

// KeyGenerator samples all key material for a parameter set.
type KeyGenerator struct {
	params  *Parameters
	sampler *ring.Sampler
}

// NewKeyGenerator returns a generator seeded from the parameter seed.
func NewKeyGenerator(params *Parameters) *KeyGenerator {
	return &KeyGenerator{params: params, sampler: ring.NewSampler(params.seed)}
}

// GenSecretKey samples a fresh ternary secret.
func (kg *KeyGenerator) GenSecretKey() *SecretKey {
	p := kg.params
	sk := &SecretKey{QP: p.ringQP.NewPoly()}
	var signed []int64
	if p.secretHW > 0 {
		signed = kg.sampler.TernaryHWTPoly(p.ringQP, p.secretHW, sk.QP)
	} else {
		signed = kg.sampler.TernaryPoly(p.ringQP, sk.QP)
	}
	p.ringQP.NTT(sk.QP)
	if p.ringQT != nil {
		sk.QT = p.ringQT.NewPoly()
		setSignedInto(p.ringQT, signed, sk.QT)
		p.ringQT.NTT(sk.QT)
	}
	return sk
}

// setSignedInto embeds small signed coefficients into every limb of p.
func setSignedInto(r *ring.Ring, signed []int64, p ring.Poly) {
	for i, m := range r.Moduli {
		ci := p.Coeffs[i]
		for j, v := range signed {
			if v >= 0 {
				ci[j] = uint64(v) % m.Q
			} else {
				ci[j] = (m.Q - uint64(-v)%m.Q) % m.Q
			}
		}
	}
}

// skQ returns the secret embedded over the full Q chain (NTT form), as a
// truncation of the QP embedding (the Q limbs come first in ringQP).
func (sk *SecretKey) skQ(p *Parameters) ring.Poly {
	return sk.QP.Truncated(len(p.qChain))
}

// GenPublicKey returns (b, a) with b = -a*s + e over the full Q chain.
func (kg *KeyGenerator) GenPublicKey(sk *SecretKey) *PublicKey {
	p := kg.params
	rq := p.ringQ
	pk := &PublicKey{B: rq.NewPoly(), A: rq.NewPoly()}
	kg.sampler.UniformPoly(rq, pk.A)
	e := rq.NewPoly()
	kg.sampler.GaussianPoly(rq, p.sigma, e)
	rq.NTT(e)
	rq.MulCoeffs(pk.A, sk.skQ(p), pk.B)
	rq.Neg(pk.B, pk.B)
	rq.Add(pk.B, e, pk.B)
	return pk
}

// keyRing returns the key ring and special-chain length for a backend.
func (p *Parameters) keyRing(m KeySwitchMethod) (*ring.Ring, int, error) {
	switch m {
	case Hybrid:
		return p.ringQP, len(p.pChain), nil
	case KLSS:
		if p.ringQT == nil {
			return nil, 0, fmt.Errorf("ckks: parameter set has no KLSS auxiliary chain: %w", ErrMethodUnavailable)
		}
		return p.ringQT, len(p.tChain), nil
	default:
		return nil, 0, fmt.Errorf("ckks: unknown key-switching method %v: %w", m, ErrMethodUnavailable)
	}
}

// groupAlpha returns the decomposition group size for a backend.
func (p *Parameters) groupAlpha(m KeySwitchMethod) int {
	if m == KLSS {
		return p.alphaT
	}
	return p.alpha
}

// skFor returns the secret embedding over the backend's key ring.
func (sk *SecretKey) skFor(m KeySwitchMethod) ring.Poly {
	if m == KLSS {
		return sk.QT
	}
	return sk.QP
}

// genSwitchingKey builds the gadget key pairs for re-encrypting c*sIn under
// sOut, both given in NTT form over the backend's key ring, and packs each.
func (kg *KeyGenerator) genSwitchingKey(sOut, sIn ring.Poly, method KeySwitchMethod) (*SwitchingKey, error) {
	p := kg.params
	kr, _, err := p.keyRing(method)
	if err != nil {
		return nil, err
	}
	alpha := p.groupAlpha(method)
	qLen := len(p.qChain)
	beta := (qLen + alpha - 1) / alpha

	// S = product of the special chain; w_j = (Q/Q_j)*[(Q/Q_j)^-1 mod Q_j]
	// is the CRT selector of group j (w_j ≡ δ_ij mod q_i).
	S := big.NewInt(1)
	for _, m := range kr.Moduli[qLen:] {
		S.Mul(S, new(big.Int).SetUint64(m.Q))
	}
	Q := big.NewInt(1)
	for _, q := range p.qChain {
		Q.Mul(Q, new(big.Int).SetUint64(q))
	}

	swk := &SwitchingKey{Method: method}
	a, e, b := kr.NewPoly(), kr.NewPoly(), kr.NewPoly()
	for j := 0; j < beta; j++ {
		lo, hi := j*alpha, min(qLen, (j+1)*alpha)
		Qj := big.NewInt(1)
		for _, q := range p.qChain[lo:hi] {
			Qj.Mul(Qj, new(big.Int).SetUint64(q))
		}
		Qhat := new(big.Int).Div(Q, Qj)
		inv := new(big.Int).ModInverse(new(big.Int).Mod(Qhat, Qj), Qj)
		wj := new(big.Int).Mul(Qhat, inv)
		wj.Mod(wj, Q)
		factor := new(big.Int).Mul(S, wj)

		kg.sampler.UniformPoly(kr, a)
		kg.sampler.GaussianPoly(kr, p.sigma, e)
		kr.NTT(e)

		kr.MulCoeffs(a, sOut, b)
		kr.Neg(b, b)
		kr.Add(b, e, b)
		// S·w_j is 0 mod every prime outside group j (w_j ≡ δ_ij mod q_i,
		// S ≡ 0 mod a special prime): the gadget lands on the group's limbs.
		for i := lo; i < hi; i++ {
			m := kr.Moduli[i]
			f := new(big.Int).Mod(factor, new(big.Int).SetUint64(m.Q)).Uint64()
			fSho := m.ShoupPrecomp(f)
			for k, x := range sIn.Coeffs[i] {
				b.Coeffs[i][k] = m.AddMod(b.Coeffs[i][k], m.MulModShoup(x, f, fSho))
			}
		}

		swk.B = append(swk.B, kr.Pack(b))
		swk.A = append(swk.A, kr.Pack(a))
	}
	return swk, nil
}

// GenRelinearizationKey returns the key that re-encrypts c*s^2 under s for
// the given backend.
func (kg *KeyGenerator) GenRelinearizationKey(sk *SecretKey, method KeySwitchMethod) (*SwitchingKey, error) {
	kr, _, err := kg.params.keyRing(method)
	if err != nil {
		return nil, err
	}
	s2 := kr.NewPoly()
	kr.MulCoeffs(sk.skFor(method), sk.skFor(method), s2)
	return kg.genSwitchingKey(sk.skFor(method), s2, method)
}

// GenGaloisKey returns the key that re-encrypts c*s under φ⁻¹(s), φ = φ_galEl:
// φ of its product with c's digits switches φ(c)*φ(s) to s, so a rotation
// permutes its key product instead of its digits (KeySwitcher.keyProduct).
func (kg *KeyGenerator) GenGaloisKey(sk *SecretKey, galEl uint64, method KeySwitchMethod) (*SwitchingKey, error) {
	kr, _, err := kg.params.keyRing(method)
	if err != nil {
		return nil, err
	}
	s := sk.skFor(method)
	sInv := kr.NewPoly()
	kr.AutomorphismNTTInverse(s, sInv, kg.params.GaloisIndex(galEl))
	return kg.genSwitchingKey(sInv, s, method)
}

// GenEvaluationKeySet returns the set NewEvaluationKeySet names with every
// key derived now: byte for byte the keys the lazy set derives on first use,
// in whatever order. It draws nothing from the generator's own stream.
func (kg *KeyGenerator) GenEvaluationKeySet(sk *SecretKey, methods []KeySwitchMethod, rotations []int, conj bool) (*EvaluationKeySet, error) {
	set := NewEvaluationKeySet(kg.params, sk, methods, rotations, conj, nil)
	for id := range set.keys {
		if _, err := set.key(id); err != nil {
			return nil, err
		}
	}
	return set, nil
}
