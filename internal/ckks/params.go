// Package ckks implements the full-RNS CKKS approximate homomorphic
// encryption scheme: canonical-embedding encoding, key generation,
// encryption, and the homomorphic evaluator (HAdd, HMult, PMult, PAdd,
// CMult, HRot, rescaling) with two interchangeable key-switching backends —
// the hybrid method (β groups of α limbs, 36-bit datapath) and a KLSS-style
// method organised around a 60-bit auxiliary chain (the tunable-bit datapath
// of the FAST accelerator) — plus hoisted rotations, homomorphic linear
// transforms and polynomial evaluation.
//
// This is the functional layer of the reproduction: it computes on real
// ciphertexts and is validated by decrypt-and-compare tests. The performance
// layer (op counts, cycle simulation) lives in internal/costmodel and
// internal/sim.
package ckks

import (
	"cmp"
	"fmt"
	"math"

	"github.com/fastfhe/fast/internal/costmodel"
	"github.com/fastfhe/fast/internal/ring"
	"github.com/fastfhe/fast/internal/rns"
)

// KeySwitchMethod selects the key-switching backend for an operation. The
// enum is declared once, in internal/costmodel; this is an alias, so a method
// chosen by the planner reaches the kernels without conversion.
type KeySwitchMethod = costmodel.Method

const (
	// Hybrid is the ModUp→KeyMult→ModDown method over the 36-bit special
	// chain P (paper Fig. 1(a)).
	Hybrid = costmodel.Hybrid
	// KLSS is the double-decomposition method over the 60-bit auxiliary
	// chain T (paper Fig. 1(b)).
	KLSS = costmodel.KLSS
)

// ParametersLiteral is the user-facing description of a parameter set.
type ParametersLiteral struct {
	LogN     int   // ring degree N = 2^LogN
	LogSlots int   // message slots n = 2^LogSlots (n <= N/2)
	LogQ     []int // bit sizes of the ciphertext prime chain q_0..q_L
	LogP     []int // bit sizes of the hybrid special chain (typically α primes)
	LogT     []int // bit sizes of the KLSS auxiliary chain (typically α̃ 60-bit primes); empty disables the KLSS backend
	LogScale int   // log2 of the encoding scale Δ
	Sigma    float64
	Alpha    int // limbs per decomposition group, hybrid method
	AlphaT   int // limbs per decomposition group, KLSS method (defaults to Alpha)
	Seed     int64

	// SecretHammingWeight selects a sparse ternary secret with exactly this
	// many non-zero coefficients (0 = dense ternary). Bootstrapping requires
	// a sparse secret to bound the EvalMod range.
	SecretHammingWeight int
}

// Parameters is a compiled parameter set: the shape it shares with every
// parameter set of the same literal but for Seed, and the seed that makes the
// keys generated over it its own. It is immutable.
type Parameters struct {
	*shape
	seed int64
}

// shape is everything a ParametersLiteral compiles to except the seed: the
// prime chains, the rings with their NTT tables, and the tables the evaluator
// runs on at every level. It is immutable once compiled (the galois and
// key-switch tables fill in lazily, each entry written once) and holds no
// per-caller state — its scratch reservoirs are sync.Pools any caller may
// draw from — so one shape serves every context built from its literal;
// NewParameters compiles each distinct shape once per process (shapeCache).
type shape struct {
	logN     int
	logSlots int
	scale    float64
	sigma    float64
	alpha    int
	alphaT   int
	secretHW int

	qChain []uint64
	pChain []uint64
	tChain []uint64

	ringQ  *ring.Ring // over the full Q chain
	ringP  *ring.Ring // over the hybrid special chain
	ringT  *ring.Ring // over the KLSS auxiliary chain (nil if disabled)
	ringQP *ring.Ring // over Q ++ P (keys of the hybrid backend)
	ringQT *ring.Ring // over Q ++ T (keys of the KLSS backend)

	// ringQAt[l] is ringQ.AtLevel(l), built once: the evaluator's ops run at a
	// level, and AtLevel re-derives the modulus product on every call.
	ringQAt []*ring.Ring

	// galois memoizes automorphism NTT index tables per Galois element,
	// shared by every evaluator and key generator built on this shape (see
	// galois.go).
	galois *galoisCache

	// rescaler holds the q_l^-1 tables of every level's rescale.
	rescaler *rns.Rescaler

	// evalPool is the reservoir of ciphertext-shaped scratch (N x full Q
	// chain) every evaluator over the shape draws from through its own
	// instrumented ring.PolyPool.Share.
	evalPool *ring.PolyPool

	// switching holds each backend's ModUp and ModDown tables per level
	// (methodIdx-indexed; nil for a backend the shape lacks), see
	// keyswitch.go.
	switching [2]*switchTables
}

// NewParameters validates a parameter literal and returns its parameter set.
// The shape — prime chains, ring and evaluator tables — is compiled only when
// no live parameter set shares it; otherwise the compiled one is reused.
func NewParameters(lit ParametersLiteral) (*Parameters, error) {
	if lit.LogN < 4 || lit.LogN > 17 {
		return nil, fmt.Errorf("ckks: LogN %d out of supported range [4,17]: %w", lit.LogN, ErrInvalidParameters)
	}
	if lit.LogSlots < 1 || lit.LogSlots > lit.LogN-1 {
		return nil, fmt.Errorf("ckks: LogSlots %d out of range [1,%d]: %w", lit.LogSlots, lit.LogN-1, ErrInvalidParameters)
	}
	if len(lit.LogQ) < 1 {
		return nil, fmt.Errorf("ckks: need at least one ciphertext prime: %w", ErrInvalidParameters)
	}
	if len(lit.LogP) < 1 {
		return nil, fmt.Errorf("ckks: need at least one special prime: %w", ErrInvalidParameters)
	}
	if lit.Alpha < 1 {
		return nil, fmt.Errorf("ckks: Alpha must be >= 1, got %d: %w", lit.Alpha, ErrInvalidParameters)
	}
	if lit.LogScale < 8 || lit.LogScale > 55 {
		return nil, fmt.Errorf("ckks: LogScale %d out of range [8,55]: %w", lit.LogScale, ErrInvalidParameters)
	}
	if lit.Sigma == 0 {
		lit.Sigma = 3.2
	}
	if lit.AlphaT == 0 {
		lit.AlphaT = lit.Alpha
	}
	s, err := sharedShape(lit)
	if err != nil {
		return nil, err
	}
	return &Parameters{shape: s, seed: lit.Seed}, nil
}

// KeySwitchShape is the online cost model's view of the parameters lit
// compiles to: the chain lengths and digit sizes KeySwitcher runs with, and
// each chain's lane class from its primes' bit sizes. A b-bit prime has
// 2q ≤ 2^52 exactly when b ≤ 51, so the literal decides the class as the
// compiled moduli would (ring.Modulus.Lane52).
func (lit ParametersLiteral) KeySwitchShape() costmodel.Shape {
	return costmodel.Shape{
		LogN: lit.LogN, L: len(lit.LogQ) - 1,
		Alpha: lit.Alpha, AlphaT: cmp.Or(lit.AlphaT, lit.Alpha),
		P: len(lit.LogP), T: len(lit.LogT),
		QLane: costmodel.LaneWeight(lit.LogQ...),
		PLane: costmodel.LaneWeight(lit.LogP...),
		TLane: costmodel.LaneWeight(lit.LogT...),
	}
}

// compileShape generates the NTT-friendly prime chains of a validated
// literal and precomputes the ring and evaluator tables.
func compileShape(lit ParametersLiteral) (*shape, error) {
	shapeCompiles.Add(1)
	p := &shape{
		logN:     lit.LogN,
		logSlots: lit.LogSlots,
		scale:    math.Exp2(float64(lit.LogScale)),
		sigma:    lit.Sigma,
		alpha:    lit.Alpha,
		alphaT:   lit.AlphaT,
		secretHW: lit.SecretHammingWeight,
	}
	p.galois = newGaloisCache(1<<uint(lit.LogN), lit.LogN)

	// Generate all chains at once per bit size so no prime repeats.
	gen := newPrimeAllocator(lit.LogN)
	var err error
	if p.qChain, err = gen.take(lit.LogQ); err != nil {
		return nil, err
	}
	if p.pChain, err = gen.take(lit.LogP); err != nil {
		return nil, err
	}
	if len(lit.LogT) > 0 {
		if p.tChain, err = gen.take(lit.LogT); err != nil {
			return nil, err
		}
	}

	if p.ringQ, err = ring.NewRing(lit.LogN, p.qChain); err != nil {
		return nil, err
	}
	for l := range p.qChain {
		p.ringQAt = append(p.ringQAt, p.ringQ.AtLevel(l))
	}
	if p.ringP, err = ring.NewRing(lit.LogN, p.pChain); err != nil {
		return nil, err
	}
	if p.ringQP, err = ring.Concat(p.ringQ, p.ringP); err != nil {
		return nil, err
	}
	p.switching[methodIdx(Hybrid)] = newSwitchTables(p.ringQP, len(p.qChain))
	if len(p.tChain) > 0 {
		if p.ringT, err = ring.NewRing(lit.LogN, p.tChain); err != nil {
			return nil, err
		}
		if p.ringQT, err = ring.Concat(p.ringQ, p.ringT); err != nil {
			return nil, err
		}
		p.switching[methodIdx(KLSS)] = newSwitchTables(p.ringQT, len(p.qChain))
	}
	p.rescaler = rns.NewRescaler(p.ringQ.Moduli)
	p.evalPool = ring.NewPolyPool(p.ringQ.N, len(p.qChain))
	return p, nil
}

// primeAllocator hands out NTT primes of requested bit sizes without ever
// repeating one across chains.
type primeAllocator struct {
	logN int
	used map[int]int // bit size -> number already consumed
}

func newPrimeAllocator(logN int) *primeAllocator {
	return &primeAllocator{logN: logN, used: map[int]int{}}
}

func (g *primeAllocator) take(bitSizes []int) ([]uint64, error) {
	out := make([]uint64, 0, len(bitSizes))
	// Group requests by bit size, preserving order.
	need := map[int]int{}
	for _, b := range bitSizes {
		need[b]++
	}
	pool := map[int][]uint64{}
	for b, n := range need {
		ps, err := ring.GenerateNTTPrimes(b, g.logN, g.used[b]+n)
		if err != nil {
			return nil, err
		}
		pool[b] = ps[g.used[b]:]
		g.used[b] += n
	}
	for _, b := range bitSizes {
		out = append(out, pool[b][0])
		pool[b] = pool[b][1:]
	}
	return out, nil
}

// N returns the ring degree.
func (p *Parameters) N() int { return 1 << uint(p.logN) }

// LogN returns log2 of the ring degree.
func (p *Parameters) LogN() int { return p.logN }

// GaloisElement returns the Galois element of a rotation by r slots.
func (p *Parameters) GaloisElement(r int) uint64 { return ring.GaloisElementForRotation(p.logN, r) }

// ConjugationElement returns the Galois element of complex conjugation.
func (p *Parameters) ConjugationElement() uint64 { return ring.GaloisElementForConjugation(p.logN) }

// Slots returns the number of message slots.
func (p *Parameters) Slots() int { return 1 << uint(p.logSlots) }

// LogSlots returns log2 of the slot count.
func (p *Parameters) LogSlots() int { return p.logSlots }

// MaxLevel returns the index of the top ciphertext limb (L in the paper).
func (p *Parameters) MaxLevel() int { return len(p.qChain) - 1 }

// Scale returns the default encoding scale Δ.
func (p *Parameters) Scale() float64 { return p.scale }

// Sigma returns the noise standard deviation.
func (p *Parameters) Sigma() float64 { return p.sigma }

// Seed returns the randomness seed of the parameter set: the one input its
// shape does not depend on.
func (p *Parameters) Seed() int64 { return p.seed }

// Alpha returns the hybrid decomposition group size.
func (p *Parameters) Alpha() int { return p.alpha }

// AlphaT returns the KLSS decomposition group size.
func (p *Parameters) AlphaT() int { return p.alphaT }

// Beta returns the number of decomposition groups at the given level for the
// hybrid method: ceil((level+1)/alpha).
func (p *Parameters) Beta(level int) int { return (level + p.alpha) / p.alpha }

// BetaT returns the number of decomposition groups at the given level for
// the KLSS method.
func (p *Parameters) BetaT(level int) int { return (level + p.alphaT) / p.alphaT }

// QChain returns the ciphertext prime chain.
func (p *Parameters) QChain() []uint64 { return p.qChain }

// PChain returns the hybrid special chain.
func (p *Parameters) PChain() []uint64 { return p.pChain }

// TChain returns the KLSS auxiliary chain (nil when disabled).
func (p *Parameters) TChain() []uint64 { return p.tChain }

// SupportsKLSS reports whether the parameter set has a KLSS auxiliary chain.
func (p *Parameters) SupportsKLSS() bool { return p.ringT != nil }

// RingQ returns the ring over the full ciphertext chain.
func (p *Parameters) RingQ() *ring.Ring { return p.ringQ }

// RingP returns the ring over the hybrid special chain.
func (p *Parameters) RingP() *ring.Ring { return p.ringP }

// TestParameters returns a small parameter set used across the test suite
// and examples: N=2^11, 5+1 ciphertext limbs, hybrid α=2 over two special
// primes and a KLSS chain of two 60-bit primes.
func TestParameters() (*Parameters, error) {
	return NewParameters(ParametersLiteral{
		LogN:     11,
		LogSlots: 10,
		LogQ:     []int{50, 36, 36, 36, 36, 36},
		LogP:     []int{50, 50},
		LogT:     []int{60, 60},
		LogScale: 36,
		Alpha:    2,
		AlphaT:   2,
		Seed:     1,
	})
}
