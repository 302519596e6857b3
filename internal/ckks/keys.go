package ckks

import (
	"fmt"
	"math/big"
	"slices"
	"sync"

	"github.com/fastfhe/fast/internal/obs"
	"github.com/fastfhe/fast/internal/ring"
)

// SecretKey holds the ternary secret s, embedded (NTT form) over each key
// ring the parameter set enables.
type SecretKey struct {
	signed []int64
	QP     ring.Poly // over Q ++ P
	QT     ring.Poly // over Q ++ T; zero-value when KLSS is disabled
}

// PublicKey is an encryption key (b, a) = (-a*s + e, a) over the full Q
// chain, NTT form.
type PublicKey struct {
	B, A ring.Poly
}

// SwitchingKey re-encrypts c*sIn into a ciphertext under s. It holds β
// gadget pairs (B[j], A[j]) over the backend's key ring (Q++P for Hybrid,
// Q++T for KLSS), all NTT form.
type SwitchingKey struct {
	Method KeySwitchMethod
	B, A   []ring.Poly
}

// EvaluationKeySet carries every key the evaluator may need: relinearization
// and Galois keys, per key-switching backend. At the shapes the fast package
// builds (α_T = α, |T| = |P|) a KLSS key is the size of the hybrid key of the
// same element. Every key is a deterministic function of the parameter seed
// and the secret, so a set has no wire form: it is generated, never read
// back. The KLSS section is drawn from its own sampler stream, so a set may
// hold it (GenEvaluationKeySet with KLSS) or derive it on the first KLSS
// lookup (DeriveKLSS).
type EvaluationKeySet struct {
	Relin  map[KeySwitchMethod]*SwitchingKey
	Galois map[KeySwitchMethod]map[uint64]*SwitchingKey

	// klss returns the KLSS section DeriveKLSS attached, generating it on
	// the first call (concurrent first calls wait for that one); nil when
	// the maps hold the set's KLSS keys or it has none.
	klss func() (*EvaluationKeySet, error)
}

// NewEvaluationKeySet returns an empty key set.
func NewEvaluationKeySet() *EvaluationKeySet {
	return &EvaluationKeySet{
		Relin:  map[KeySwitchMethod]*SwitchingKey{},
		Galois: map[KeySwitchMethod]map[uint64]*SwitchingKey{},
	}
}

// section returns the set whose maps hold m's keys: s itself, or the KLSS
// section DeriveKLSS attached.
func (s *EvaluationKeySet) section(m KeySwitchMethod) (*EvaluationKeySet, error) {
	if m == KLSS && s.klss != nil {
		return s.klss()
	}
	return s, nil
}

// RelinKey returns the relinearization key for the method, or an error if it
// was never generated.
func (s *EvaluationKeySet) RelinKey(m KeySwitchMethod) (*SwitchingKey, error) {
	sec, err := s.section(m)
	if err != nil {
		return nil, err
	}
	k, ok := sec.Relin[m]
	if !ok {
		return nil, fmt.Errorf("ckks: no %v relinearization key in the set: %w", m, ErrKeyMissing)
	}
	return k, nil
}

// GaloisKey returns the Galois key for the method and element.
func (s *EvaluationKeySet) GaloisKey(m KeySwitchMethod, galEl uint64) (*SwitchingKey, error) {
	sec, err := s.section(m)
	if err != nil {
		return nil, err
	}
	k, ok := sec.Galois[m][galEl]
	if !ok {
		return nil, fmt.Errorf("ckks: no %v galois key for element %d: %w", m, galEl, ErrKeyMissing)
	}
	return k, nil
}

// DeriveKLSS attaches the KLSS section to a hybrid-only set: the first KLSS
// lookup generates the relinearization key and a Galois key for every
// element of the hybrid section, from the KLSS stream GenEvaluationKeySet
// draws them from, so a derived key is byte-identical to the eagerly
// generated one. Until then no KLSS key exists. It does nothing when the
// parameter set has no KLSS chain. The observer, when non-nil, counts the
// derivation's draws on ckks.sampler.draws. Call it before the set is shared.
func (s *EvaluationKeySet) DeriveKLSS(params *Parameters, sk *SecretKey, o *obs.Observer) {
	if params.ringQT == nil {
		return
	}
	galEls := s.galoisElements(Hybrid)
	s.klss = sync.OnceValues(func() (*EvaluationKeySet, error) {
		kg := newKLSSGenerator(params)
		if o != nil {
			kg.sampler.Instrument(o.Reg().Counter("ckks.sampler.draws"))
		}
		set := NewEvaluationKeySet()
		return set, kg.genSection(set, sk, KLSS, galEls)
	})
}

// galoisElements returns the elements of the method's Galois keys, ascending.
func (s *EvaluationKeySet) galoisElements(m KeySwitchMethod) []uint64 {
	galEls := make([]uint64, 0, len(s.Galois[m]))
	for el := range s.Galois[m] {
		galEls = append(galEls, el)
	}
	slices.Sort(galEls)
	return galEls
}

func (s *EvaluationKeySet) addGalois(m KeySwitchMethod, galEl uint64, k *SwitchingKey) {
	if s.Galois[m] == nil {
		s.Galois[m] = map[uint64]*SwitchingKey{}
	}
	s.Galois[m][galEl] = k
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

// klssSeedOffset separates the KLSS key stream from the main key stream
// (seed) and the encryptor's (seed+0x5eed onwards): KLSS keys draw from their
// own sampler, so generating them eagerly or deriving them later gives the
// same bytes, and neither moves a hybrid key.
const klssSeedOffset = 0x6b6c7373 // "klss"

// newKLSSGenerator returns the generator of the parameter set's KLSS keys.
func newKLSSGenerator(params *Parameters) *KeyGenerator {
	return &KeyGenerator{params: params, sampler: ring.NewSampler(params.seed + klssSeedOffset)}
}

// GenSecretKey samples a fresh ternary secret.
func (kg *KeyGenerator) GenSecretKey() *SecretKey {
	p := kg.params
	sk := &SecretKey{QP: p.ringQP.NewPoly()}
	if p.secretHW > 0 {
		sk.signed = kg.sampler.TernaryHWTPoly(p.ringQP, p.secretHW, sk.QP)
	} else {
		sk.signed = kg.sampler.TernaryPoly(p.ringQP, sk.QP)
	}
	p.ringQP.NTT(sk.QP)
	if p.ringQT != nil {
		sk.QT = p.ringQT.NewPoly()
		setSignedInto(p.ringQT, sk.signed, sk.QT)
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

// genSwitchingKey builds the gadget key pairs for re-encrypting c*skIn,
// where skIn is given in NTT form over the backend's key ring.
func (kg *KeyGenerator) genSwitchingKey(sk *SecretKey, skIn ring.Poly, method KeySwitchMethod) (*SwitchingKey, error) {
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
	skNTT := sk.skFor(method)
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

		a := kr.NewPoly()
		kg.sampler.UniformPoly(kr, a)
		e := kr.NewPoly()
		kg.sampler.GaussianPoly(kr, p.sigma, e)
		kr.NTT(e)

		b := kr.NewPoly()
		kr.MulCoeffs(a, skNTT, b)
		kr.Neg(b, b)
		kr.Add(b, e, b)
		gadget := kr.NewPoly()
		kr.MulScalarBigint(skIn, factor, gadget)
		kr.Add(b, gadget, b)

		swk.B = append(swk.B, b)
		swk.A = append(swk.A, a)
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
	return kg.genSwitchingKey(sk, s2, method)
}

// GenGaloisKey returns the key that re-encrypts c*φ_galEl(s) under s.
func (kg *KeyGenerator) GenGaloisKey(sk *SecretKey, galEl uint64, method KeySwitchMethod) (*SwitchingKey, error) {
	kr, _, err := kg.params.keyRing(method)
	if err != nil {
		return nil, err
	}
	idx := kg.params.GaloisIndex(galEl)
	sRot := kr.NewPoly()
	kr.AutomorphismNTT(sk.skFor(method), sRot, idx)
	return kg.genSwitchingKey(sk, sRot, method)
}

// GenEvaluationKeySet generates relinearization keys for every requested
// method and Galois keys for every requested rotation (plus conjugation if
// conj is true). Hybrid keys draw from the generator's stream in that order;
// KLSS keys draw from the KLSS stream, relinearization key first, then the
// Galois elements ascending — the keys DeriveKLSS generates.
func (kg *KeyGenerator) GenEvaluationKeySet(sk *SecretKey, methods []KeySwitchMethod, rotations []int, conj bool) (*EvaluationKeySet, error) {
	logN := kg.params.LogN()
	var galEls []uint64
	for _, r := range rotations {
		galEls = append(galEls, ring.GaloisElementForRotation(logN, r))
	}
	if conj {
		galEls = append(galEls, ring.GaloisElementForConjugation(logN))
	}
	set := NewEvaluationKeySet()
	for _, m := range methods {
		g, els := kg, galEls
		if m == KLSS {
			els = slices.Clone(galEls)
			slices.Sort(els)
			g, els = newKLSSGenerator(kg.params), slices.Compact(els)
		}
		if err := g.genSection(set, sk, m, els); err != nil {
			return nil, err
		}
	}
	return set, nil
}

// genSection adds the method's relinearization key and a Galois key per
// element, in order, to set.
func (kg *KeyGenerator) genSection(set *EvaluationKeySet, sk *SecretKey, m KeySwitchMethod, galEls []uint64) error {
	rlk, err := kg.GenRelinearizationKey(sk, m)
	if err != nil {
		return err
	}
	set.Relin[m] = rlk
	for _, galEl := range galEls {
		gk, err := kg.GenGaloisKey(sk, galEl, m)
		if err != nil {
			return err
		}
		set.addGalois(m, galEl, gk)
	}
	return nil
}
