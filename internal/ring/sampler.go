package ring

import (
	"math"
	"math/rand"
	randv2 "math/rand/v2"

	"github.com/fastfhe/fast/internal/obs"
)

// Sampler draws the random polynomials the scheme needs: uniform masks,
// ternary secrets and discrete-Gaussian noise. It is deterministic given its
// seed, which is what the accelerator's on-chip evaluation-key generator
// (EKG, §5.7.2 of the paper) exploits: only the seed of the "a" part of each
// key must be stored, the polynomial itself is re-expanded on the fly.
//
// A Sampler is NOT safe for concurrent use (the underlying generator is one
// sequential stream); callers that share one — the Encryptor does — must
// serialise the draw. The draw-only methods (TernarySigned, GaussianSigned)
// exist so that callers can hold a lock across exactly the stream
// consumption and do the per-limb reduction (SetSigned) outside it.
type Sampler struct {
	rng *rand.Rand
	// pcg, when non-nil, is the PCG under rng, which the uniform draw calls
	// directly instead of through rng's Source interface.
	pcg *randv2.PCG

	// draws counts the random polynomials drawn (uniform, ternary and
	// gaussian alike). Nil when uninstrumented; see Instrument.
	draws *obs.Counter
}

// NewSampler returns a sampler seeded deterministically. math/rand's source
// reduces seed modulo 2^31−1 (and maps 0 to a fixed value), so only seeds in
// [1, 2^31−2] give distinct streams.
func NewSampler(seed int64) *Sampler {
	return &Sampler{rng: rand.New(rand.NewSource(seed))}
}

// NewStreamSampler returns the sampler of one stream of seed: math/rand/v2's
// PCG seeded with (seed, stream). Every bit of both counts, so distinct pairs
// draw distinct streams, and no stream moves another's bytes.
func NewStreamSampler(seed, stream uint64) *Sampler {
	pcg := randv2.NewPCG(seed, stream)
	return &Sampler{rng: rand.New(pcgSource{pcg}), pcg: pcg}
}

// pcgSource is a PCG as the rand.Source64 a Sampler draws through.
type pcgSource struct{ *randv2.PCG }

func (s pcgSource) Int63() int64    { return int64(s.Uint64() >> 1) }
func (s pcgSource) Seed(seed int64) { s.PCG.Seed(uint64(seed), 0) }

// Instrument attaches a counter of polynomial draws (nil detaches). The
// counter does not perturb the random stream.
func (s *Sampler) Instrument(draws *obs.Counter) { s.draws = draws }

// UniformPoly fills p with independent uniform values modulo each limb,
// value for value what rng.Int63n(q) draws: a power-of-two q masks one
// 63-bit draw; any other q rejects the draws above the largest multiple of q
// below 2^63 (rarely: at most q/2^63 of them) and reduces the one it keeps.
// A stream sampler, which derives every evaluation key, draws from its PCG
// directly (not through the Source interface) and reduces by ReduceWord's
// Barrett step, so no residue pays a division.
func (s *Sampler) UniformPoly(r *Ring, p Poly) {
	r.checkShape(p)
	s.draws.Inc()
	for i, m := range r.Moduli {
		ci := p.Coeffs[i]
		if s.pcg == nil || m.Q&(m.Q-1) == 0 {
			for j := range ci {
				ci[j] = uint64(s.rng.Int63n(int64(m.Q)))
			}
			continue
		}
		bound := 1<<63 - 1 - (1<<63)%m.Q // Int63n's largest kept draw
		for j := range ci {
			v := s.pcg.Uint64() >> 1
			for v > bound {
				v = s.pcg.Uint64() >> 1
			}
			ci[j] = m.ReduceWord(v)
		}
	}
}

// TernarySigned draws the signed coefficient vector of a ternary polynomial
// (each coefficient in {-1,0,1}, nonzero with probability 2/3) without
// touching any Poly. It consumes exactly the random stream TernaryPoly
// consumes, so splitting a draw from its reduction preserves the stream
// bit-for-bit.
func (s *Sampler) TernarySigned(n int) []int64 {
	s.draws.Inc()
	signed := make([]int64, n)
	for j := range signed {
		signed[j] = int64(s.rng.Intn(3)) - 1
	}
	return signed
}

// TernaryPoly fills p with a ternary polynomial (coefficients in {-1,0,1},
// each nonzero with probability 2/3), identical across limbs. Returns the
// signed coefficients for callers that need them (key generation stores the
// secret this way).
func (s *Sampler) TernaryPoly(r *Ring, p Poly) []int64 {
	r.checkShape(p)
	signed := s.TernarySigned(r.N)
	SetSigned(r, signed, p)
	return signed
}

// TernaryHWTPoly fills p with a sparse ternary polynomial of exactly h
// non-zero coefficients (±1 with equal probability) — the sparse-secret
// distribution CKKS bootstrapping uses to bound the modular-reduction range
// K of EvalMod. Returns the signed coefficients.
func (s *Sampler) TernaryHWTPoly(r *Ring, h int, p Poly) []int64 {
	r.checkShape(p)
	s.draws.Inc()
	if h > r.N {
		h = r.N
	}
	signed := make([]int64, r.N)
	perm := s.rng.Perm(r.N)
	for i := 0; i < h; i++ {
		if s.rng.Intn(2) == 0 {
			signed[perm[i]] = 1
		} else {
			signed[perm[i]] = -1
		}
	}
	SetSigned(r, signed, p)
	return signed
}

// GaussianSigned draws the signed coefficient vector of a discrete-Gaussian
// polynomial of standard deviation sigma truncated at 6 sigma, consuming
// exactly the random stream GaussianPoly consumes (see TernarySigned).
func (s *Sampler) GaussianSigned(n int, sigma float64) []int64 {
	s.draws.Inc()
	signed := make([]int64, n)
	bound := 6 * sigma
	for j := range signed {
		for {
			v := s.rng.NormFloat64() * sigma
			if math.Abs(v) <= bound {
				signed[j] = int64(math.Round(v))
				break
			}
		}
	}
	return signed
}

// GaussianPoly fills p with discrete-Gaussian noise of standard deviation
// sigma truncated at 6 sigma, identical across limbs.
func (s *Sampler) GaussianPoly(r *Ring, sigma float64, p Poly) {
	r.checkShape(p)
	SetSigned(r, s.GaussianSigned(r.N, sigma), p)
}

// SetSigned reduces signed coefficients into every limb of p. A value below
// q in magnitude takes no reduction (a negative one gets q added); a wider
// one takes ReduceWord's Barrett step of its two's-complement word, less
// 2^64 mod q when negative. No value pays a division. It is pure computation
// on its arguments (no sampler state), so callers holding a sampler lock for
// a draw can run it after releasing the lock.
func SetSigned(r *Ring, signed []int64, p Poly) {
	for i, m := range r.Moduli {
		ci := p.Coeffs[i][:len(signed)]
		wrap := m.ReduceWord(m.ReduceWord(^uint64(0)) + 1) // 2^64 mod q
		for j, v := range signed {
			neg := uint64(v >> 63) // all ones when v < 0
			x := uint64(v) + m.Q&neg
			if x >= m.Q { // |v| >= q
				if x = m.ReduceWord(uint64(v)) + m.Q - wrap&neg; x >= m.Q {
					x -= m.Q
				}
			}
			ci[j] = x
		}
	}
}
