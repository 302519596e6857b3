// Package ring implements arithmetic over the negacyclic polynomial rings
// R_q = Z_q[X]/(X^N+1) that underpin the RNS-CKKS scheme: word-size modular
// arithmetic, NTT-friendly prime generation, forward/inverse number-theoretic
// transforms, Galois automorphisms, and secret/noise samplers.
//
// All arithmetic is implemented from scratch on top of math/bits; moduli up to
// 61 bits are supported, which covers both the 36-bit ciphertext primes and
// the 60-bit auxiliary primes the FAST accelerator's tunable-bit datapath
// targets.
package ring

import (
	"fmt"
	"math/bits"
)

// MaxModulusBits is the largest supported modulus width. The bound comes from
// the lazy-reduction headroom used by the Harvey NTT butterflies: the forward
// transform keeps coefficients in [0, 4q) between stages and the inverse in
// [0, 2q), so 4q (and every intermediate like u + 2q - v) must fit in 64 bits
// with margin. With q < 2^61 the largest lazy intermediate is < 2^63.
//
// Bounds invariant at each kernel boundary (see DESIGN.md "Reduction
// strategy" for the full table):
//
//	NTTTable.Forward      in [0,2q) -> out [0,q)   (internally [0,4q))
//	NTTTable.Inverse      in [0,2q) -> out [0,q)   (internally [0,2q))
//	NTTTable.InverseLazy  in [0,2q) -> out [0,2q)
//	Extender.Convert      src [0,2q) -> dst [0,q)
//	ModDowner.ModDown     xQ/xP [0,2q) -> out [0,q)
//	Rescaler.Rescale      x [0,2q) -> out [0,q)
const MaxModulusBits = 61

// Modulus bundles a prime q with the precomputed constants required for fast
// reduction of 128-bit products (Barrett) and of products by a fixed operand
// (Shoup).
type Modulus struct {
	Q uint64 // the prime itself

	// brc is the Barrett constant floor(2^128 / q), stored as (hi, lo)
	// 64-bit words. It lets us reduce a 128-bit product with two
	// multiplications instead of a hardware division.
	brc [2]uint64

	// lane52 holds the constants of the 52-bit datapath (see lane52.go):
	// {q, floor(2^52/q), 2^52 mod q, floor((2^52 mod q)·2^52/q)}. All zero
	// unless 2q <= 2^52.
	lane52 [4]uint64
}

// NewModulus validates q and precomputes its reduction constants.
func NewModulus(q uint64) (Modulus, error) {
	if q < 2 {
		return Modulus{}, fmt.Errorf("ring: modulus %d is too small", q)
	}
	if bits.Len64(q) > MaxModulusBits {
		return Modulus{}, fmt.Errorf("ring: modulus %d exceeds %d bits", q, MaxModulusBits)
	}
	return Modulus{Q: q, brc: barrettConstant(q), lane52: lane52Constants(q)}, nil
}

// barrettConstant returns floor(2^128/q) as (hi, lo). We divide the two-word
// value 2^128-1 by q with long division; floor((2^128-1)/q) equals
// floor(2^128/q) whenever q does not divide 2^128, which holds for every odd
// q > 1.
func barrettConstant(q uint64) [2]uint64 {
	w1, r1 := bits.Div64(0, ^uint64(0), q)
	w0, _ := bits.Div64(r1, ^uint64(0), q)
	return [2]uint64{w1, w0}
}

// Reduce returns x mod q for a full 128-bit value x = hi*2^64 + lo using the
// Barrett constant. Requires x < q*2^64 (equivalently hi < q), which holds for
// a single product of two values < q and, more generally, for a 128-bit
// accumulator of up to AccumCapacity products of values < q — the contract
// the HPS-style accumulating BConv and the fused KeyMult kernels rely on.
func (m Modulus) Reduce(hi, lo uint64) uint64 {
	if hi == 0 && lo < m.Q {
		return lo
	}
	// Estimate the quotient: t = floor(x * floor(2^128/q) / 2^128).
	// x = hi*2^64+lo, c = brc[0]*2^64 + brc[1].
	// We need the top 128 bits of the 256-bit product x*c; because hi < q
	// < 2^61 the estimate below is off by at most 2, fixed by conditional
	// subtractions.
	c1, c0 := m.brc[0], m.brc[1]

	// x*c = hi*c1*2^128 + (hi*c0 + lo*c1)*2^64 + lo*c0
	h1, _ := bits.Mul64(lo, c0)
	m1h, m1l := bits.Mul64(hi, c0)
	m2h, m2l := bits.Mul64(lo, c1)
	th, tl := bits.Mul64(hi, c1)

	// mid = m1 + m2 + h1 (collect carries into the top word).
	midl, carry := bits.Add64(m1l, m2l, 0)
	midh := m1h + m2h + carry
	midl, carry = bits.Add64(midl, h1, 0)
	midh += carry

	// quotient estimate = th*2^64 + tl + midh (top 128 bits of x*c).
	qlo, carry := bits.Add64(tl, midh, 0)
	_ = th + carry // th only nonzero when hi,q near 2^64; quotient high word unused since result < 2^64

	// r = x - q*quot (mod 2^64); r fits in 64 bits after correction.
	qql := qlo * m.Q
	r := lo - qql
	for r >= m.Q {
		r -= m.Q
	}
	return r
}

// ReduceWord returns x mod q for a single 64-bit x of arbitrary magnitude
// using a one-word Barrett step (quotient estimate from the high word of the
// Barrett constant, off by at most 2). This replaces the hardware division of
// `x % q` in kernels that fold a foreign-limb residue, e.g. the rescale
// subtraction path.
func (m Modulus) ReduceWord(x uint64) uint64 {
	if x < m.Q {
		return x
	}
	t, _ := bits.Mul64(x, m.brc[0])
	r := x - t*m.Q
	for r >= m.Q {
		r -= m.Q
	}
	return r
}

// AccumCapacity returns the number of products of operands < q that a 128-bit
// accumulator can sum while staying < q*2^64, i.e. while remaining reducible
// by Reduce in one Barrett step: floor((2^64-1)/q) terms of at most (q-1)^2
// each. For the 61-bit cap this is at least 8; for the 36-bit ciphertext
// primes it is astronomically large, so inner products over the Q chain never
// need intermediate folding.
func (m Modulus) AccumCapacity() int {
	c := ^uint64(0) / m.Q
	const maxInt = int(^uint(0) >> 1)
	if c > uint64(maxInt) {
		return maxInt
	}
	return int(c)
}

// MulMod returns a*b mod q using exact 128-bit division. It is the
// correctness reference for the Barrett path and is fast enough for
// non-inner-loop uses.
func (m Modulus) MulMod(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	_, r := bits.Div64(hi, lo, m.Q)
	return r
}

// AddMod returns a+b mod q for a, b < q.
func (m Modulus) AddMod(a, b uint64) uint64 {
	s := a + b
	if s >= m.Q || s < a { // s < a catches wraparound (cannot happen for q<2^63)
		s -= m.Q
	}
	return s
}

// SubMod returns a-b mod q for a, b < q.
func (m Modulus) SubMod(a, b uint64) uint64 {
	if a >= b {
		return a - b
	}
	return a + m.Q - b
}

// NegMod returns -a mod q for a < q.
func (m Modulus) NegMod(a uint64) uint64 {
	if a == 0 {
		return 0
	}
	return m.Q - a
}

// PowMod returns a^e mod q by square-and-multiply.
func (m Modulus) PowMod(a, e uint64) uint64 {
	r := uint64(1)
	a %= m.Q
	for e > 0 {
		if e&1 == 1 {
			r = m.MulMod(r, a)
		}
		a = m.MulMod(a, a)
		e >>= 1
	}
	return r
}

// InvMod returns a^-1 mod q (q prime, a != 0 mod q).
func (m Modulus) InvMod(a uint64) uint64 {
	return m.PowMod(a, m.Q-2)
}

// ShoupPrecomp returns floor(w * 2^64 / q), the Shoup companion word for
// multiplying arbitrary values by the fixed operand w.
func (m Modulus) ShoupPrecomp(w uint64) uint64 {
	hi, _ := bits.Div64(w%m.Q, 0, m.Q)
	return hi
}

// MulModShoup returns x*w mod q given w's Shoup companion wShoup. The result
// is fully reduced, and — crucially for lazy-reduction pipelines — the
// identity holds for ANY 64-bit x, not just x < q: the quotient estimate
// floor(x*wShoup/2^64) is off by at most 1, so a single conditional
// subtraction suffices. Kernels therefore feed values in [0, 2q) or [0, 4q)
// straight into a Shoup multiply to re-enter the fully-reduced domain.
func (m Modulus) MulModShoup(x, w, wShoup uint64) uint64 {
	t, _ := bits.Mul64(x, wShoup) // quotient estimate floor(x*w/q) or that minus 1
	r := x*w - t*m.Q
	if r >= m.Q {
		r -= m.Q
	}
	return r
}

// MulModShoupLazy is MulModShoup without the final conditional subtraction:
// the result is in [0, 2q) and congruent to x*w mod q, for any 64-bit x and
// w < q. This is the Harvey lazy butterfly multiply: one high-mul, two
// low-muls, zero branches.
func (m Modulus) MulModShoupLazy(x, w, wShoup uint64) uint64 {
	t, _ := bits.Mul64(x, wShoup)
	return x*w - t*m.Q
}
