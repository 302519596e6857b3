package ring

import (
	"fmt"
	"math/big"
)

// Ring represents R_Q = Z_Q[X]/(X^N+1) with Q given in RNS form as a chain of
// NTT-friendly primes. A Ring value is immutable after construction and safe
// for concurrent use.
type Ring struct {
	N       int
	LogN    int
	Moduli  []Modulus
	Tables  []*NTTTable
	modProd *big.Int // product of all moduli
}

// NewRing builds a ring of degree 2^logN over the given prime chain.
func NewRing(logN int, primes []uint64) (*Ring, error) {
	if logN < 1 || logN > 17 {
		return nil, fmt.Errorf("ring: logN %d out of range [1,17]", logN)
	}
	if len(primes) == 0 {
		return nil, fmt.Errorf("ring: empty prime chain")
	}
	seen := make(map[uint64]bool, len(primes))
	r := &Ring{N: 1 << uint(logN), LogN: logN, modProd: big.NewInt(1)}
	for _, q := range primes {
		if seen[q] {
			return nil, fmt.Errorf("ring: duplicate prime %d", q)
		}
		seen[q] = true
		mod, err := NewModulus(q)
		if err != nil {
			return nil, err
		}
		tbl, err := NewNTTTable(mod, logN)
		if err != nil {
			return nil, err
		}
		r.Moduli = append(r.Moduli, mod)
		r.Tables = append(r.Tables, tbl)
		r.modProd.Mul(r.modProd, new(big.Int).SetUint64(q))
	}
	return r, nil
}

// Level returns the index of the last limb (len-1) of the full chain.
func (r *Ring) Level() int { return len(r.Moduli) - 1 }

// ModulusProduct returns a copy of the product of all limb moduli.
func (r *Ring) ModulusProduct() *big.Int { return new(big.Int).Set(r.modProd) }

// ModulusProductAtLevel returns the product q_0*...*q_level.
func (r *Ring) ModulusProductAtLevel(level int) *big.Int {
	p := big.NewInt(1)
	for i := 0; i <= level; i++ {
		p.Mul(p, new(big.Int).SetUint64(r.Moduli[i].Q))
	}
	return p
}

// AtLevel returns a shallow view of the ring truncated to level+1 limbs.
// The returned ring shares tables with the receiver.
func (r *Ring) AtLevel(level int) *Ring {
	// INVARIANT: levels are validated at the ckks boundary (ErrLevelMismatch) before reaching ring kernels.
	// A panic here is a repo-internal bug, never a reaction to caller input —
	// malformed inputs are rejected with typed errors at the public boundary.
	if level < 0 || level > r.Level() {
		panic(fmt.Sprintf("ring: level %d out of range [0,%d]", level, r.Level()))
	}
	return &Ring{
		N:       r.N,
		LogN:    r.LogN,
		Moduli:  r.Moduli[:level+1],
		Tables:  r.Tables[:level+1],
		modProd: r.ModulusProductAtLevel(level),
	}
}

// Poly is a polynomial in RNS representation: Coeffs[i][j] is the j-th
// coefficient modulo the i-th limb prime. Whether the value is in coefficient
// or NTT (evaluation) form is tracked by the owner, not by the Poly itself;
// the ckks layer keeps ciphertexts in NTT form by convention.
//
// Arena invariant: every pool- or NewPoly-constructed Poly is arena-backed —
// Backing is one contiguous []uint64 of length Limbs()*N(), and Coeffs[i]
// aliases Backing[i*N : (i+1)*N]. Kernels and serialization may iterate the
// backing directly (stride-N limb access, one encoding/binary pass). Code that
// accepts foreign polys (hand-built Coeffs, Backing == nil) must fall back to
// the row view; the helpers in this file do.
type Poly struct {
	Coeffs  [][]uint64
	Backing []uint64
	arena   *poolArena // set by PolyPool.Get; lets Put recycle without alloc
}

// NewPoly allocates a zero polynomial with limbs levels+1 limbs of degree N.
func (r *Ring) NewPoly() Poly {
	return NewPoly(r.N, len(r.Moduli))
}

// NewPoly allocates a zero polynomial with the given degree and limb count,
// backed by a single contiguous allocation.
func NewPoly(n, limbs int) Poly {
	return PolyFromBacking(n, limbs, make([]uint64, n*limbs))
}

// PolyFromBacking builds a Poly over a caller-provided contiguous backing
// slice of length at least n*limbs. Row i aliases backing[i*n:(i+1)*n] with
// its capacity clamped to n, so row writes can never spill into a neighbor.
// The Poly retains backing (trimmed to n*limbs), which is what makes pooled
// arenas reusable: recycling re-derives the rows from the one slice instead of
// re-slicing garbage-retaining sub-slices.
func PolyFromBacking(n, limbs int, backing []uint64) Poly {
	// INVARIANT: shapes are pinned by the parameter set or the pool class.
	// A panic here is a repo-internal bug, never a reaction to caller input —
	// malformed inputs are rejected with typed errors at the public boundary.
	if n < 1 || limbs < 1 || len(backing) < n*limbs {
		panic(fmt.Sprintf("ring: PolyFromBacking(%d, %d) with backing length %d", n, limbs, len(backing)))
	}
	backing = backing[: n*limbs : n*limbs]
	c := make([][]uint64, limbs)
	for i := range c {
		c[i] = backing[i*n : (i+1)*n : (i+1)*n]
	}
	return Poly{Coeffs: c, Backing: backing}
}

// Limbs returns the number of RNS limbs of p.
func (p Poly) Limbs() int { return len(p.Coeffs) }

// N returns the polynomial degree of p.
func (p Poly) N() int {
	if len(p.Coeffs) == 0 {
		return 0
	}
	return len(p.Coeffs[0])
}

// CopyValues copies src into p; both must have identical shape.
func (p Poly) CopyValues(src Poly) {
	if p.Backing != nil && src.Backing != nil && len(p.Backing) == len(src.Backing) {
		copy(p.Backing, src.Backing)
		return
	}
	for i := range p.Coeffs {
		copy(p.Coeffs[i], src.Coeffs[i])
	}
}

// Clone returns a deep copy of p.
func (p Poly) Clone() Poly {
	out := NewPoly(p.N(), p.Limbs())
	out.CopyValues(p)
	return out
}

// Truncated returns a shallow view of p restricted to the first limbs limbs.
// The view keeps the arena linkage: its Backing is the contiguous prefix
// covering the retained limbs, and a pooled poly's truncated view can still be
// handed back to its pool.
func (p Poly) Truncated(limbs int) Poly {
	t := Poly{Coeffs: p.Coeffs[:limbs], arena: p.arena}
	if n := p.N(); p.Backing != nil && len(p.Backing) >= limbs*n {
		t.Backing = p.Backing[: limbs*n : limbs*n]
	}
	return t
}

// Zero sets all coefficients of p to zero.
func (p Poly) Zero() {
	if p.Backing != nil && len(p.Backing) == p.Limbs()*p.N() {
		clear(p.Backing)
		return
	}
	for i := range p.Coeffs {
		clear(p.Coeffs[i])
	}
}

// Equal reports whether p and q have identical shape and coefficients.
func (p Poly) Equal(q Poly) bool {
	if p.Limbs() != q.Limbs() || p.N() != q.N() {
		return false
	}
	for i := range p.Coeffs {
		pi, qi := p.Coeffs[i], q.Coeffs[i]
		for j := range pi {
			if pi[j] != qi[j] {
				return false
			}
		}
	}
	return true
}

// checkShape panics unless all operands have exactly limbs(r) limbs of degree N.
func (r *Ring) checkShape(ps ...Poly) {
	for _, p := range ps {
		// INVARIANT: operand shapes are pinned by the parameter set; the public API validates ciphertext shape (ErrInvalidCiphertext) at entry.
		// A panic here is a repo-internal bug, never a reaction to caller input —
		// malformed inputs are rejected with typed errors at the public boundary.
		if p.Limbs() != len(r.Moduli) || p.N() != r.N {
			panic(fmt.Sprintf("ring: operand shape %dx%d does not match ring %dx%d",
				p.Limbs(), p.N(), len(r.Moduli), r.N))
		}
	}
}

// NTT transforms p (coefficient form) to evaluation form, in place.
func (r *Ring) NTT(p Poly) {
	r.checkShape(p)
	for i, t := range r.Tables {
		t.Forward(p.Coeffs[i])
	}
}

// INTT transforms p (evaluation form) back to coefficient form, in place.
func (r *Ring) INTT(p Poly) {
	r.checkShape(p)
	for i, t := range r.Tables {
		t.Inverse(p.Coeffs[i])
	}
}

// Add sets out = a + b (element-wise mod each limb).
func (r *Ring) Add(a, b, out Poly) {
	r.checkShape(a, b, out)
	for i, m := range r.Moduli {
		m.addVec(out.Coeffs[i], a.Coeffs[i], b.Coeffs[i])
	}
}

// Sub sets out = a - b.
func (r *Ring) Sub(a, b, out Poly) {
	r.checkShape(a, b, out)
	for i, m := range r.Moduli {
		m.subVec(out.Coeffs[i], a.Coeffs[i], b.Coeffs[i])
	}
}

// Neg sets out = -a.
func (r *Ring) Neg(a, out Poly) {
	r.checkShape(a, out)
	for i, m := range r.Moduli {
		m.subVec(out.Coeffs[i], nil, a.Coeffs[i])
	}
}

// MulCoeffs sets out = a ∘ b (element-wise product; polynomial product when
// both operands are in NTT form). Both operands are variable, so the Shoup
// trick (fixed operand) does not apply. On the 52-bit datapath it is a
// one-term multiply-accumulate (two multiply-adds and the fold, no division);
// on the 64-bit paths a single hardware 128/64 division per coefficient
// benchmarks faster than a two-word Barrett step, so MulMod is the primitive
// there (see DESIGN.md "Reduction strategy").
func (r *Ring) MulCoeffs(a, b, out Poly) {
	r.checkShape(a, b, out)
	for i, m := range r.Moduli {
		ai, bi, oi := a.Coeffs[i], b.Coeffs[i], out.Coeffs[i]
		if m.use52(len(oi)) { // one product of two residues always fits mac52
			mac52(m, oi, [][]uint64{ai}, [][]uint64{bi}, 0)
			continue
		}
		for j := range oi {
			oi[j] = m.MulMod(ai[j], bi[j])
		}
	}
}

// MulCoeffsThenAdd sets out += a ∘ b.
func (r *Ring) MulCoeffsThenAdd(a, b, out Poly) {
	r.checkShape(a, b, out)
	for i, m := range r.Moduli {
		ai, bi, oi := a.Coeffs[i], b.Coeffs[i], out.Coeffs[i]
		if m.use52(len(oi)) {
			mac52(m, oi, [][]uint64{ai}, [][]uint64{bi}, mac52AddDst)
			continue
		}
		for j := range oi {
			oi[j] = m.AddMod(oi[j], m.MulMod(ai[j], bi[j]))
		}
	}
}

// MulScalar sets out = a * scalar.
func (r *Ring) MulScalar(a Poly, scalar uint64, out Poly) {
	r.checkShape(a, out)
	for i, m := range r.Moduli {
		s := scalar % m.Q
		sSho := m.ShoupPrecomp(s)
		ai, oi := a.Coeffs[i], out.Coeffs[i]
		for j := range oi {
			oi[j] = m.MulModShoup(ai[j], s, sSho)
		}
	}
}

// AddScalar sets out = a + scalar.
func (r *Ring) AddScalar(a Poly, scalar uint64, out Poly) {
	r.checkShape(a, out)
	for i, m := range r.Moduli {
		s := scalar % m.Q
		ai, oi := a.Coeffs[i], out.Coeffs[i]
		for j := range oi {
			oi[j] = m.AddMod(ai[j], s)
		}
	}
}

// MulScalarBigint sets out = a * scalar for an arbitrary-precision scalar.
func (r *Ring) MulScalarBigint(a Poly, scalar *big.Int, out Poly) {
	r.checkShape(a, out)
	tmp := new(big.Int)
	for i, m := range r.Moduli {
		s := tmp.Mod(scalar, new(big.Int).SetUint64(m.Q)).Uint64()
		sSho := m.ShoupPrecomp(s)
		ai, oi := a.Coeffs[i], out.Coeffs[i]
		for j := range oi {
			oi[j] = m.MulModShoup(ai[j], s, sSho)
		}
	}
}

// PolyToBigintCentered reconstructs coefficient j of p (coefficient form)
// as centered big integers in (-Q/2, Q/2] via the CRT, writing into out
// (which must have length N). Used by the decoder.
func (r *Ring) PolyToBigintCentered(p Poly, out []*big.Int) {
	r.checkShape(p)
	// Precompute CRT garner constants: Q/q_i and (Q/q_i)^-1 mod q_i.
	Q := r.modProd
	half := new(big.Int).Rsh(Q, 1)
	qiB := make([]*big.Int, len(r.Moduli))
	QdivQi := make([]*big.Int, len(r.Moduli))
	inv := make([]uint64, len(r.Moduli))
	for i, m := range r.Moduli {
		qiB[i] = new(big.Int).SetUint64(m.Q)
		QdivQi[i] = new(big.Int).Div(Q, qiB[i])
		rem := new(big.Int).Mod(QdivQi[i], qiB[i]).Uint64()
		inv[i] = m.InvMod(rem)
	}
	tmp := new(big.Int)
	for j := 0; j < r.N; j++ {
		acc := new(big.Int)
		for i, m := range r.Moduli {
			// term = (p_ij * inv_i mod q_i) * (Q/q_i)
			t := m.MulMod(p.Coeffs[i][j], inv[i])
			tmp.SetUint64(t)
			tmp.Mul(tmp, QdivQi[i])
			acc.Add(acc, tmp)
		}
		acc.Mod(acc, Q)
		if acc.Cmp(half) > 0 {
			acc.Sub(acc, Q)
		}
		out[j] = acc
	}
}

// SetCoeffBigint sets p from centered big-integer coefficients (length N),
// reducing each into every limb.
func (r *Ring) SetCoeffBigint(coeffs []*big.Int, p Poly) {
	r.checkShape(p)
	tmp := new(big.Int)
	for i, m := range r.Moduli {
		q := new(big.Int).SetUint64(m.Q)
		for j := 0; j < r.N; j++ {
			tmp.Mod(coeffs[j], q)
			p.Coeffs[i][j] = tmp.Uint64()
		}
	}
}
